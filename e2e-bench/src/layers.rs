//! Per-layer measurements of a traced run.
//!
//! * span self times per rank, from the `agcm_obs` tracer the program
//!   already carries (operators, halo pack/wait, collectives, untracked);
//! * kernel ns/point from direct calls to each kernel's public entry
//!   point on the workload's own mesh, and computed bytes/point from the
//!   kernels' declared access footprints ([`agcm_core::access`]);
//! * the sustainable memory bandwidth (STREAM triad) in the same run;
//! * the critical path of each step joined against the static schedule
//!   ([`agcm_verify::critpath`]), and the α–β–γ model fitted from it.

use crate::stats::median;
use crate::workload::RankGeom;
use agcm_comm::{fit_alpha_beta, fit_gamma, CommFit, CostModel};
use agcm_core::access;
use agcm_core::adaptation::adaptation_tendency;
use agcm_core::advection::advection_tendency;
use agcm_core::analysis::{predict_step, AlgKind, CaMode};
use agcm_core::filterop::filter_state_local;
use agcm_core::serial::{Iteration, SerialModel};
use agcm_core::smoothing::{smooth_rows, RowMask};
use agcm_core::vertical::{apply_c, ZContext};
use agcm_core::{init, pool, ModelConfig, Region, State};
use agcm_fft::FilterScratch;
use agcm_mesh::ProcessGrid;
use agcm_obs::{Event, Phase, SpanKind};
use agcm_verify::{critpath, ScheduleGraph};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Operator groups in [`RankSpans::op_ns`] order (`S` = `S1 + S2`): the
/// metric each reports and the [`KERNELS`] entry whose rate prices it.
pub const OPS: [(&str, usize); 5] = [
    ("op.A.s_per_step", 0),
    ("op.C.s_per_step", 3),
    ("op.F.s_per_step", 4),
    ("op.L.s_per_step", 1),
    ("op.S.s_per_step", 2),
];

fn op_index(p: Phase) -> Option<usize> {
    match p {
        Phase::A => Some(0),
        Phase::C => Some(1),
        Phase::F => Some(2),
        Phase::L => Some(3),
        Phase::S1 | Phase::S2 => Some(4),
        Phase::Other => None,
    }
}

/// Where one rank's traced step time went, summed over the measured steps.
/// Every component is a *self* time (span duration minus the spans nested
/// in it), so for a well-nested stream the in-step components add up to
/// `step_wall_ns` exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankSpans {
    /// `Step` spans seen.
    pub steps: u64,
    /// Σ `Step` span durations.
    pub step_wall_ns: u64,
    /// Operator self time per [`OPS`] group.
    pub op_ns: [u64; 5],
    /// Operator spans per [`OPS`] group.
    pub op_calls: [u64; 5],
    /// Halo pack/post self time.
    pub pack_ns: u64,
    /// Halo wait/unpack self time.
    pub wait_ns: u64,
    /// Collective self time inside steps.
    pub coll_ns: u64,
    /// Self time of other in-step spans (iterations, overlap windows).
    pub other_ns: u64,
    /// Step time covered by no child span.
    pub untracked_ns: u64,
    /// Collective time between steps (the resilient runner's health
    /// consensus).
    pub coll_between_ns: u64,
    /// Spans that overlap a sibling or parent without nesting in it.
    pub violations: u64,
}

impl RankSpans {
    /// Σ of every in-step component.
    pub fn in_step_sum_ns(&self) -> u64 {
        self.op_ns.iter().sum::<u64>()
            + self.pack_ns
            + self.wait_ns
            + self.coll_ns
            + self.other_ns
            + self.untracked_ns
    }
}

/// Span kinds recorded on a rank's own thread.  Pool workers and socket
/// reader threads record on other threads, so they cannot nest.
fn on_rank_thread(k: SpanKind) -> bool {
    !matches!(k, SpanKind::Worker | SpanKind::Transport | SpanKind::Gauge)
}

/// Self-time breakdown of `rank`'s spans over steps `[first, end)`.
pub fn rank_spans(events: &[Event], rank: usize, first: u64, end: u64) -> RankSpans {
    let mut evs: Vec<&Event> = events
        .iter()
        .filter(|e| e.rank == rank && on_rank_thread(e.kind) && (first..end).contains(&e.step))
        .collect();
    // parents before the children they contain
    evs.sort_by_key(|e| (e.t0_ns, std::cmp::Reverse(e.t1_ns), e.seq));
    let mut child_ns = vec![0u64; evs.len()];
    let mut in_step = vec![false; evs.len()];
    let mut out = RankSpans::default();
    let mut stack: Vec<usize> = Vec::new();
    for (i, e) in evs.iter().enumerate() {
        while stack.last().is_some_and(|&t| evs[t].t1_ns <= e.t0_ns) {
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            if e.t1_ns > evs[parent].t1_ns {
                out.violations += 1;
            }
            child_ns[parent] += e.dur_ns();
            in_step[i] = in_step[parent];
        }
        in_step[i] |= e.kind == SpanKind::Step;
        stack.push(i);
    }
    for (i, e) in evs.iter().enumerate() {
        let own = e.dur_ns().saturating_sub(child_ns[i]);
        if !in_step[i] {
            if e.kind == SpanKind::Collective {
                out.coll_between_ns += own;
            }
            continue;
        }
        match e.kind {
            SpanKind::Step => {
                out.steps += 1;
                out.step_wall_ns += e.dur_ns();
                out.untracked_ns += own;
            }
            SpanKind::Op => match op_index(e.phase) {
                Some(k) => {
                    out.op_ns[k] += own;
                    out.op_calls[k] += 1;
                }
                None => out.other_ns += own,
            },
            SpanKind::ExchangePost => out.pack_ns += own,
            SpanKind::ExchangeWait => out.wait_ns += own,
            SpanKind::Collective => out.coll_ns += own,
            _ => out.other_ns += own,
        }
    }
    out
}

/// Per-step wall time of every rank's `Step` span, keyed by step.
pub fn step_walls(events: &[Event], first: u64, end: u64) -> BTreeMap<u64, Vec<f64>> {
    let mut m: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for e in events {
        if e.kind == SpanKind::Step && (first..end).contains(&e.step) {
            m.entry(e.step).or_default().push(e.dur_ns() as f64 * 1e-9);
        }
    }
    m
}

/// The kernels timed: ns/point metric, bytes/point metric and the
/// access-registry key of the kernel's declared footprint.
pub const KERNELS: [(&str, &str, &str); 5] = [
    (
        "kernel.adaptation.ns_per_pt",
        "kernel.adaptation.bytes_per_pt",
        "adaptation",
    ),
    (
        "kernel.advection.ns_per_pt",
        "kernel.advection.bytes_per_pt",
        "advection",
    ),
    (
        "kernel.smoothing.ns_per_pt",
        "kernel.smoothing.bytes_per_pt",
        "smooth.s1",
    ),
    (
        "kernel.vertical_c.ns_per_pt",
        "kernel.vertical_c.bytes_per_pt",
        "vertical.c",
    ),
    (
        "kernel.fft_filter.ns_per_pt",
        "kernel.fft_filter.bytes_per_pt",
        "filter",
    ),
];
/// [`KERNELS`] index of the polar filter, priced per transformed row value.
const FILTER: usize = 4;

/// Measured kernel rates on one mesh.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelRates {
    /// Median ns per point, [`KERNELS`] order.  The stencil kernels count
    /// owned grid points; the filter counts transformed row values.
    pub ns_per_pt: [f64; 5],
    /// Computed compulsory bytes per point (each declared field access
    /// moves its 8-byte value once; cache misses ignored).
    pub bytes_per_pt: [f64; 5],
}

/// Timed calls per kernel (the median is kept).
const KERNEL_REPS: usize = 15;

fn time_median(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&v)
}

fn time_call(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Time each kernel's public entry point on `cfg`'s serial geometry at
/// `threads` pool workers, over the state one step of `seed`'s initial
/// condition produces.
pub fn measure_kernels(cfg: &ModelConfig, seed: u64, threads: usize) -> KernelRates {
    pool::with_workers(threads, || {
        let mut m = SerialModel::new(cfg, Iteration::Approximate).expect("valid mesh");
        let ic = init::perturbed_rest(m.geom(), 200.0, 1.0, seed);
        m.set_state(&ic);
        // one step leaves valid halos and C diagnostics behind
        m.step();
        let g = &m.engine.geom;
        let region = g.interior();
        let pts = (g.nx * g.ny * g.nz) as f64;
        let mut tend = State::like(&m.state);
        let ns = |s: f64, n: f64| s * 1e9 / n;
        let adapt = time_median(KERNEL_REPS, || {
            time_call(|| adaptation_tendency(g, &m.state, &m.engine.diag, &mut tend, region))
        });
        let advect = time_median(KERNEL_REPS, || {
            time_call(|| advection_tendency(g, &m.state, &m.engine.diag, &mut tend, region))
        });
        let beta = m.engine.cfg.smooth_beta;
        let smooth = time_median(KERNEL_REPS, || {
            time_call(|| smooth_rows(g, beta, &m.state, &mut tend, region, RowMask::FULL, false))
        });
        let mut diag = m.engine.diag.clone();
        let vert = time_median(KERNEL_REPS, || {
            time_call(|| {
                apply_c(
                    g,
                    &m.engine.stdatm,
                    &m.state,
                    &mut diag,
                    region,
                    &ZContext::Serial,
                    true,
                )
                .expect("serial C cannot fail")
            })
        });
        // the filter entry point is serial; at more workers the model
        // filters z-bands in parallel, so time one band per worker, each
        // on its own copy of the state
        let nw = threads.max(1);
        let mut works: Vec<(State, FilterScratch)> = (0..nw)
            .map(|_| {
                let mut s = FilterScratch::new();
                s.warm(g.nx);
                (m.state.clone(), s)
            })
            .collect();
        let active = (0..g.ny).filter(|&j| m.engine.filter.is_active(j)).count();
        let fpts = (active * g.nx * (3 * g.nz + 1)).max(1) as f64;
        let filter = time_median(KERNEL_REPS, || {
            // filter fresh copies each time: repeated damping would drive
            // the polar rows toward subnormals
            for (w, _) in &mut works {
                w.assign(&m.state);
            }
            let nz = region.z1 - region.z0;
            let bands = works.iter_mut().enumerate().map(|(i, (w, sc))| {
                let (i, n) = (i as isize, nw as isize);
                let band = Region {
                    z0: region.z0 + nz * i / n,
                    z1: region.z0 + nz * (i + 1) / n,
                    ..region
                };
                (w, sc, band)
            });
            time_call(|| {
                std::thread::scope(|s| {
                    for (w, sc, band) in bands {
                        let filter = &m.engine.filter;
                        s.spawn(move || filter_state_local(g, filter, w, band, sc));
                    }
                })
            })
        });
        black_box((&tend, &diag, &works));
        let secs = [adapt, advect, smooth, vert, filter];
        let mut rates = KernelRates::default();
        for (k, s) in secs.iter().enumerate() {
            let n = if k == FILTER { fpts } else { pts };
            rates.ns_per_pt[k] = ns(*s, n);
            rates.bytes_per_pt[k] = bytes_per_pt(KERNELS[k].2, g.nz);
        }
        rates
    })
}

/// Compulsory bytes per point of a registered kernel: 8 bytes per declared
/// field access, surface (2-D) fields amortised over the `nz` levels.
/// The filter transforms rows in place, so it moves each row value twice
/// (one read, one write).
pub fn bytes_per_pt(key: &str, nz: usize) -> f64 {
    let spec = access::spec(key).expect("registered kernel");
    if spec.fields.iter().all(|a| a.whole_x) {
        return 16.0;
    }
    let surface = ["psa", "dsa", "vsum"];
    spec.fields
        .iter()
        .map(|a| {
            if surface.contains(&a.field) {
                8.0 / nz as f64
            } else {
                8.0
            }
        })
        .sum()
}

/// STREAM triad bandwidth (GB/s) on `threads` threads over three arrays of
/// `array_bytes` each: `a = b + s·c`, counting 24 bytes per element.
pub fn triad_gbs(array_bytes: u64, threads: usize) -> f64 {
    const REPS: usize = 4;
    let n = (array_bytes / 8) as usize;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let chunk = n.div_ceil(threads.max(1));
    let mut times = Vec::with_capacity(REPS);
    // the first pass faults `a` in and is not timed
    for rep in 0..=REPS {
        let t = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + 3.0 * z;
                    }
                });
            }
        });
        if rep > 0 {
            times.push(t.elapsed().as_secs_f64());
        }
    }
    black_box(&a);
    24.0 * n as f64 / median(&times) / 1e9
}

/// Critical-path figures of a parallel traced run.
#[derive(Debug, Clone, Default)]
pub struct CritPath {
    /// Median per-step self time on the step's critical rank (the one
    /// whose step ends last, per [`critpath::analyze`]): compute
    /// (operators + everything untracked), halo pack, halo wait and
    /// collectives — the four add up to that rank's step wall \[s\].
    pub compute_s: f64,
    /// See `compute_s`.
    pub pack_s: f64,
    /// See `compute_s`.
    pub wire_wait_s: f64,
    /// See `compute_s`.
    pub collective_s: f64,
    /// Steps analysed.
    pub steps: usize,
    /// Join errors against the static schedule.
    pub errors: Vec<String>,
    /// α–β fit of the measured exchanges, if any were joined.
    pub fit: Option<CommFit>,
    /// Fitted γ \[s per point update\].
    pub gamma: f64,
    /// Step time the fitted model predicts \[s\].
    pub predicted_step_s: f64,
}

/// Join steps `[first, end)` of `events` against the static schedule of
/// `alg` on `pgrid` and fit the α–β–γ model to the result.
pub fn critical_path(
    events: &[Event],
    cfg: &ModelConfig,
    alg: AlgKind,
    pgrid: ProcessGrid,
    first: u64,
    end: u64,
) -> CritPath {
    let graph = match ScheduleGraph::extract(cfg, alg, CaMode::Grouped, pgrid) {
        Ok(g) => g,
        Err(e) => {
            return CritPath {
                errors: vec![format!("schedule extraction: {e}")],
                ..CritPath::default()
            }
        }
    };
    let measured: Vec<Event> = events
        .iter()
        .filter(|e| (first..end).contains(&e.step))
        .copied()
        .collect();
    let rep = critpath::analyze(&measured, &graph);
    let crit: Vec<RankSpans> = rep
        .steps
        .iter()
        .map(|p| rank_spans(&measured, p.critical_rank, p.step, p.step + 1))
        .collect();
    let s = |f: &dyn Fn(&RankSpans) -> u64| {
        median(&crit.iter().map(|r| f(r) as f64 * 1e-9).collect::<Vec<_>>())
    };
    let mut cp = CritPath {
        compute_s: s(&|r| r.op_ns.iter().sum::<u64>() + r.other_ns + r.untracked_ns),
        pack_s: s(&|r| r.pack_ns),
        wire_wait_s: s(&|r| r.wait_ns),
        collective_s: s(&|r| r.coll_ns),
        steps: rep.steps.len(),
        errors: rep.errors.clone(),
        ..CritPath::default()
    };
    if let Ok(fit) = fit_alpha_beta(&rep.samples) {
        let probe = CostModel {
            alpha: 0.0,
            beta: 0.0,
            gamma: 1.0,
            sync: 0.0,
            name: "probe",
        };
        // γ from operator self time alone: the point updates the model
        // counts are the operators'
        let updates = predict_step(cfg, alg, pgrid, &probe).compute_s;
        cp.gamma = fit_gamma(s(&|r| r.op_ns.iter().sum()), updates);
        cp.predicted_step_s = predict_step(cfg, alg, pgrid, &fit.model(cp.gamma)).total_s();
        cp.fit = Some(fit);
    }
    cp
}

/// Kernel-predicted operator compute of one rank per step: each operator
/// group's spans per step × the points one span covers × the group's
/// kernel ns/point.  Algorithm 2's adaptation/advection sweeps cover its
/// dilated regions, hence the swept/owned scale.
pub fn kernel_predicted_s(spans: &RankSpans, geom: &RankGeom, rates: &KernelRates) -> f64 {
    if spans.steps == 0 {
        return 0.0;
    }
    let dilation = if geom.sweep_interior_pts > 0 {
        geom.swept_pts as f64 / geom.sweep_interior_pts as f64
    } else {
        1.0
    };
    OPS.iter()
        .enumerate()
        .map(|(k, &(_, kernel))| {
            let pts = match kernel {
                FILTER => geom.filter_pts as f64,
                // adaptation and advection sweep the dilated regions
                0 | 1 => geom.interior_pts as f64 * dilation,
                _ => geom.interior_pts as f64,
            };
            spans.op_calls[k] as f64 / spans.steps as f64 * pts * rates.ns_per_pt[kernel] * 1e-9
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: SpanKind, phase: Phase, t0: u64, t1: u64, seq: u64) -> Event {
        Event {
            rank: 0,
            step: 0,
            kind,
            phase,
            name: "t",
            t0_ns: t0,
            t1_ns: t1,
            seq,
            bytes: 0,
            value: 0.0,
        }
    }

    #[test]
    fn self_times_add_up_to_the_step() {
        let evs = [
            ev(SpanKind::Step, Phase::Other, 0, 100, 9),
            ev(SpanKind::Op, Phase::A, 10, 50, 3),
            ev(SpanKind::Op, Phase::C, 20, 30, 1),
            ev(SpanKind::Collective, Phase::C, 22, 28, 0),
            ev(SpanKind::ExchangeWait, Phase::Other, 60, 70, 4),
            ev(SpanKind::Op, Phase::S2, 70, 80, 5),
            // a pool worker on another thread must not nest
            ev(SpanKind::Worker, Phase::Other, 5, 95, 6),
            // runner bookkeeping after the step
            ev(SpanKind::Collective, Phase::Other, 100, 104, 10),
        ];
        let s = rank_spans(&evs, 0, 0, 1);
        assert_eq!(s.violations, 0);
        assert_eq!(s.steps, 1);
        assert_eq!(s.op_ns, [30, 4, 0, 0, 10]);
        assert_eq!(s.coll_ns, 6);
        assert_eq!(s.wait_ns, 10);
        assert_eq!(s.untracked_ns, 40);
        assert_eq!(s.coll_between_ns, 4);
        assert_eq!(s.in_step_sum_ns(), s.step_wall_ns);
    }

    #[test]
    fn partial_overlap_is_a_violation() {
        let evs = [
            ev(SpanKind::Step, Phase::Other, 0, 100, 2),
            ev(SpanKind::Op, Phase::A, 10, 50, 0),
            ev(SpanKind::Op, Phase::L, 40, 60, 1),
        ];
        assert_eq!(rank_spans(&evs, 0, 0, 1).violations, 1);
    }

    #[test]
    fn access_footprints_give_bytes() {
        // adaptation: 9 reads + 4 writes; psa (read and written), dsa and
        // vsum are surface fields
        let b = bytes_per_pt("adaptation", 30);
        assert!((b - (9.0 * 8.0 + 4.0 * 8.0 / 30.0)).abs() < 1e-12, "{b}");
        assert_eq!(bytes_per_pt("filter", 30), 16.0);
    }
}

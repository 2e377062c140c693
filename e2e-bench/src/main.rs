//! `agcm-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! See the crate documentation (`src/lib.rs`) and `README.md` beside
//! `Cargo.toml` for what each workload and metric means.

use agcm_comm::WIRE_OVERHEAD_BYTES;
use agcm_core::analysis::AlgKind;
use agcm_e2e_bench::check::{self, Tolerance, Verdict};
use agcm_e2e_bench::host;
use agcm_e2e_bench::layers::{self, RankSpans, KERNELS, OPS};
use agcm_e2e_bench::metrics::{json_list, json_num, json_str, Metrics, END_TO_END, PER_LAYER};
use agcm_e2e_bench::stats::{median, tail};
use agcm_e2e_bench::workload::{self, Kind, Run, RunOpts, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Repetitions of the measured integration in one run, each with its own
/// set-up, from the same initial condition; the end-to-end metrics are
/// their medians, so a host stall over one repetition does not move them.
/// Odd, so one repetition holds the median step.
const REPS: usize = 7;
/// Largest `|Σ traced layers − harness step wall| / harness step wall`.
const LAYER_SUM_TOL: f64 = 0.05;
/// Largest `|kernel-predicted / measured operator compute − 1|`.
const KERNEL_OP_TOL: f64 = 0.5;
/// Bytes in a megabyte as `peak_rss_mb` and `mem.*_mb` count them.
const MB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: agcm-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("agcm-e2e-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::find(&args.workload) else {
        let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
        eprintln!(
            "agcm-e2e-bench: unknown workload '{}' (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let run_dir = PathBuf::from(".bench_run").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("agcm-e2e-bench: creating {}: {e}", run_dir.display());
        return ExitCode::from(1);
    }
    let result = bench(&w, &args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(".bench_run");
    let (provenance, line, ok) = result;
    println!("{provenance}");
    println!("{line}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Provenance and correctness facts gathered along the way.
#[derive(Default)]
struct Notes {
    fields: Vec<(String, String)>,
    not_applicable: Vec<&'static str>,
    failures: Vec<String>,
}

impl Notes {
    fn put(&mut self, key: &str, json: String) {
        self.fields.push((key.to_string(), json));
    }
    fn put_num(&mut self, key: &str, v: f64) {
        self.put(key, json_num(v));
    }
    fn put_str(&mut self, key: &str, v: &str) {
        self.put(key, json_str(v));
    }
    fn fail(&mut self, why: String) {
        eprintln!("agcm-e2e-bench: FAIL: {why}");
        self.failures.push(why);
    }
}

/// Check a run's final state and mass budget against the reference.
fn gate(
    run: &Run,
    reference: &agcm_core::par::GlobalState,
    tol: Tolerance,
    what: &str,
    notes: &mut Notes,
) -> Verdict {
    if let Some(e) = &run.error {
        notes.fail(format!("{what}: {e}"));
    }
    let verdict = match &run.state {
        Some(s) => check::compare(s, reference, tol),
        None => Verdict {
            max_abs_diff: f64::INFINITY,
            mismatches: 0,
            failure: Some("no final state".into()),
        },
    };
    if let Some(f) = &verdict.failure {
        notes.fail(format!("{what}: {f}"));
    }
    let drift = check::mass_drift(run.mass.0, run.mass.1);
    let bound = check::MASS_DRIFT_PER_STEP_MAX * run.steps as f64;
    if drift.is_nan() || drift > bound {
        notes.fail(format!("{what}: mass drift {drift:e} > {bound:e}"));
    }
    notes.put_num(&format!("{what}.mass_drift"), drift);
    notes.put_num(&format!("{what}.max_abs_diff"), verdict.max_abs_diff);
    verdict
}

/// Failed step attempts of a run: those that errored or were rolled back,
/// or every attempt when the final state is wrong.
fn failed_steps(run: &Run, verdict: &Verdict) -> u64 {
    if verdict.ok() && run.error.is_none() {
        run.failed
    } else {
        run.attempted.max(1)
    }
}

fn bench(w: &Workload, args: &Args, run_dir: &std::path::Path) -> (String, String, bool) {
    let steps = w.steps_for(args.seconds / REPS as f64);
    let llc = host::llc_bytes();
    let mut notes = Notes::default();
    eprintln!(
        "agcm-e2e-bench: {} seed {} {REPS} x {} steps trace {}",
        w.name, args.seed, steps, args.trace as u8
    );
    let opts = |traced: bool, rep: usize| RunOpts {
        seed: args.seed,
        steps,
        rep,
        traced,
        run_dir: run_dir.to_path_buf(),
    };

    // every repetition integrates the same steps from the same initial
    // condition: the first is checked against the reference, the others
    // bitwise against the first as they finish, so the process holds one
    // extra final state at most
    let ticks = host::cpu_ticks();
    let mut reps: Vec<Run> = Vec::with_capacity(REPS);
    let mut rep_steal = Vec::with_capacity(REPS);
    let (mut attempted, mut failed) = (0, 0);
    for rep in 0..REPS {
        let before = host::cpu_ticks();
        let mut run = workload::run(w, &opts(false, rep));
        rep_steal.push(host::steal_frac(before, host::cpu_ticks()));
        eprintln!(
            "agcm-e2e-bench: repetition {rep}: {} steps in {:.3} s (p50 {:.4} s, steal {:.3})",
            run.steps,
            run.loop_s,
            median(&run.step_s),
            rep_steal[rep]
        );
        if let Some(first) = reps.first() {
            let what = format!("rep{rep}_vs_rep0");
            attempted += run.attempted;
            failed += match &first.state {
                Some(s0) => {
                    let verdict = gate(&run, s0, Tolerance::Bitwise, &what, &mut notes);
                    failed_steps(&run, &verdict)
                }
                None => {
                    notes.fail(format!("{what}: repetition 0 left no final state"));
                    run.attempted.max(1)
                }
            };
            run.state = None;
        }
        reps.push(run);
    }
    notes.put_num(
        "host.steal_frac",
        host::steal_frac(ticks, host::cpu_ticks()),
    );
    let (reference, ref_walls) = workload::reference(w, args.seed, steps);
    let verdict = gate(&reps[0], &reference, w.tolerance, "rep0", &mut notes);
    attempted += reps[0].attempted;
    failed += failed_steps(&reps[0], &verdict);
    reps[0].state = None;

    let p50s: Vec<f64> = reps.iter().map(|r| median(&r.step_s)).collect();
    let mut order: Vec<usize> = (0..REPS).collect();
    order.sort_by(|&a, &b| p50s[a].total_cmp(&p50s[b]));
    // the repetition with the median step stands for the run in the
    // per-layer metrics
    let run = &reps[order[REPS / 2]];
    let p50 = p50s[order[REPS / 2]];
    let all_steps: Vec<f64> = reps.iter().flat_map(|r| r.step_s.iter().copied()).collect();
    let t = tail(&all_steps);
    let setups: Vec<workload::Setup> = reps.iter().map(|r| r.setup).collect();
    let mut m = Metrics::default();
    let sim_years = steps as f64 * w.cfg.dt2 / (365.0 * 86400.0);
    let sypd: Vec<f64> = reps
        .iter()
        .map(|r| sim_years / (r.loop_s / 86400.0))
        .collect();
    m.set("sypd", median(&sypd));
    m.set("step_s.p50", p50);
    m.set(
        "setup_s",
        median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
    );
    // later repetitions reuse memory the allocator kept from earlier ones:
    // the first is the process a user starts
    m.set("peak_rss_mb", reps[0].rss_mb);

    let working_set_mb = run.working_set_bytes / MB;
    let mut layer = Metrics::default();
    if args.trace {
        let traced = workload::run(w, &opts(true, REPS));
        let tv = gate(&traced, &reference, w.tolerance, "traced", &mut notes);
        attempted += traced.attempted;
        failed += failed_steps(&traced, &tv);
        layer = layer_metrics(
            w, args.seed, run, &setups, &traced, &ref_walls, llc, &mut notes,
        );
        layer.set("step_s.tail", t.value);
    }
    m.set("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);

    // provenance
    let mut p = Notes::default();
    p.put_str("workload", w.name);
    p.put_num("seed", args.seed as f64);
    p.put_str("commit", host::COMMIT);
    p.put_str("source_digest", host::SOURCE_DIGEST);
    p.put_str("rustc", host::RUSTC);
    p.put_num("nproc", host::nproc() as f64);
    p.put_num("ranks", w.ranks() as f64);
    p.put_num("threads_per_rank", w.threads_per_rank() as f64);
    let compute_threads = w.ranks() * w.threads_per_rank();
    p.put(
        "oversubscribed",
        (compute_threads > host::nproc()).to_string(),
    );
    p.put_num("llc_mb", llc.map_or(0.0, |b| b as f64 / MB));
    p.put_num("working_set_mb_computed", working_set_mb);
    let (nx, ny, nz) = w.cfg.extents();
    p.put_str("mesh", &format!("{nx}x{ny}x{nz}"));
    p.put_str("transport", w.transport());
    p.put_num("reps", REPS as f64);
    let nums = |xs: &[f64]| {
        let v: Vec<String> = xs.iter().map(|&x| json_num(x)).collect();
        format!("[{}]", v.join(", "))
    };
    p.put("rep.step_s.p50", nums(&p50s));
    p.put("rep.sypd", nums(&sypd));
    p.put("rep.steal_frac", nums(&rep_steal));
    p.put_num("steps", steps as f64);
    p.put_num("step_samples", all_steps.len() as f64);
    let lo = all_steps.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = all_steps.iter().copied().fold(0.0, f64::max);
    p.put_num("step_s.min", if lo.is_finite() { lo } else { 0.0 });
    p.put_num("step_s.max", hi);
    p.put_num("step_s.tail.percentile", t.percentile);
    p.put_num("step_s.tail.samples_beyond", t.beyond as f64);
    p.put("step_s.tail.resolved", t.resolved.to_string());
    let tiles: Vec<String> = run.geom.iter().map(|g| g.tile_j.to_string()).collect();
    p.put("tile_j", format!("[{}]", tiles.join(", ")));
    p.put_str(
        "reference",
        &format!(
            "serial {:?} at {} workers, {:?}",
            w.ref_variant, w.ref_threads, w.tolerance
        ),
    );
    p.put_num("mass_drift_per_step_max", check::MASS_DRIFT_PER_STEP_MAX);
    p.put_num("fail_frac", failed as f64 / attempted.max(1) as f64);
    if let Some((g, fuse, ga)) = run.ca_group {
        p.put_str(
            "ca_schedule",
            &format!("g={g} fused_smoothing={fuse} g_a={ga}"),
        );
    }
    p.fields.append(&mut notes.fields);

    let mut ok = notes.failures.is_empty();
    let metrics = if args.trace {
        let missing = layer.missing(PER_LAYER);
        if !missing.is_empty() {
            notes.fail(format!("per-layer metrics missing: {}", missing.join(", ")));
            ok = false;
        }
        p.put("not_applicable", json_list(&notes.not_applicable));
        layer.to_json(PER_LAYER)
    } else {
        m.to_json(END_TO_END)
    };
    let printed = if args.trace { &layer } else { &m };
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    if !printed.all_finite(set) {
        notes.fail("a metric is not finite".into());
        ok = false;
    }
    if !notes.failures.is_empty() {
        p.put("failures", json_list(&notes.failures));
    }
    let mut prov = String::from("{\"provenance\": {");
    for (i, (k, v)) in p.fields.iter().enumerate() {
        if i > 0 {
            prov.push_str(", ");
        }
        let _ = write!(prov, "{}: {v}", json_str(k));
    }
    prov.push_str("}}");
    let line = format!(
        "{{\"correct\": {ok}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
    (prov, line, ok)
}

/// Every per-layer metric of a traced run.
fn layer_metrics(
    w: &Workload,
    seed: u64,
    run: &Run,
    setups: &[workload::Setup],
    traced: &Run,
    ref_walls: &[f64],
    llc: Option<u64>,
    notes: &mut Notes,
) -> Metrics {
    let mut m = Metrics::default();
    let steps = traced.steps as u64;
    let per_step = |x: f64| x / steps.max(1) as f64;
    let ranks = w.ranks();

    // kernels on the workload's own mesh, at its per-rank worker count
    let rates = layers::measure_kernels(&w.cfg, seed, w.threads_per_rank());
    for (k, (ns, bytes, _)) in KERNELS.into_iter().enumerate() {
        m.set(ns, rates.ns_per_pt[k]);
        m.set(bytes, rates.bytes_per_pt[k]);
    }
    // bandwidth arrays ≥ 4× the LLC each (capped at 512 MB), on every core
    let array_bytes = llc.map_or(256 << 20, |b| (4 * b).min(512 << 20));
    m.set(
        "mem.triad_gbs",
        layers::triad_gbs(array_bytes, host::nproc()),
    );

    // spans: every rank over every measured step
    let spans: Vec<RankSpans> = (0..ranks)
        .map(|r| layers::rank_spans(&traced.events, r, 0, steps))
        .collect();
    let mean = |f: &dyn Fn(&RankSpans) -> f64| spans.iter().map(f).sum::<f64>() / ranks as f64;
    for (k, (name, _)) in OPS.into_iter().enumerate() {
        m.set(name, mean(&|s| per_step(s.op_ns[k] as f64 * 1e-9)));
    }
    m.set(
        "exchange.pack_s_per_step",
        mean(&|s| per_step(s.pack_ns as f64 * 1e-9)),
    );
    m.set(
        "exchange.wait_s_per_step",
        mean(&|s| per_step(s.wait_ns as f64 * 1e-9)),
    );
    m.set(
        "collective.s_per_step",
        mean(&|s| per_step((s.coll_ns + s.coll_between_ns) as f64 * 1e-9)),
    );

    // reconciliation 1: the layers add up to the harness-timed step wall
    let s0 = &spans[0];
    let harness_s: f64 = traced.bare_step_s.iter().sum();
    let layer_sum_s = s0.in_step_sum_ns() as f64 * 1e-9;
    let layer_sum_err = (layer_sum_s - harness_s).abs() / harness_s.max(1e-12);
    m.set("recon.layer_sum_err", layer_sum_err);
    m.set(
        "recon.untracked_frac",
        s0.untracked_ns as f64 / s0.step_wall_ns.max(1) as f64,
    );
    let violations: u64 = spans.iter().map(|s| s.violations).sum();
    notes.put_num("recon.layer_sum_tol", LAYER_SUM_TOL);
    notes.put_num("recon.span_violations", violations as f64);
    if violations > 0
        || layer_sum_err.is_nan()
        || layer_sum_err > LAYER_SUM_TOL
        || s0.steps != steps
    {
        notes.fail(format!(
            "layers do not reconcile: {violations} badly nested spans, {} step spans for {steps} steps, \
             layer sum {layer_sum_s:.4} s vs harness {harness_s:.4} s (tolerance {LAYER_SUM_TOL})",
            s0.steps
        ));
    }
    // reconciliation 2: kernel ns/pt × points ≈ operator compute
    let predicted = layers::kernel_predicted_s(s0, &traced.geom[0], &rates);
    let measured = per_step(s0.op_ns.iter().sum::<u64>() as f64 * 1e-9);
    let kernel_op_err = (predicted / measured.max(1e-12) - 1.0).abs();
    m.set("recon.kernel_op_err", kernel_op_err);
    notes.put_num("recon.kernel_op_tol", KERNEL_OP_TOL);
    notes.put_num("recon.kernel_predicted_s_per_step", predicted);
    if kernel_op_err.is_nan() || kernel_op_err > KERNEL_OP_TOL {
        notes.fail(format!(
            "kernel-predicted compute {predicted:.4} s/step vs operator self time {measured:.4} s/step \
             (off by {:.0}%, tolerance {:.0}%)",
            100.0 * kernel_op_err,
            100.0 * KERNEL_OP_TOL
        ));
    }

    // exact counts over the untraced loop
    let mean_comm = |f: &dyn Fn(&workload::RankComm) -> f64| {
        per_step(run.comm.iter().map(f).sum::<f64>() / run.comm.len().max(1) as f64)
    };
    m.set(
        "exchange.rounds_per_step",
        mean_comm(&|c| c.exchanges as f64),
    );
    m.set(
        "exchange.msgs_per_step",
        mean_comm(&|c| c.stats.p2p_sends as f64),
    );
    m.set(
        "exchange.bytes_per_step",
        mean_comm(&|c| c.stats.p2p_send_bytes() as f64),
    );
    m.set(
        "collective.calls_per_step",
        mean_comm(&|c| c.stats.collective_calls as f64),
    );
    m.set(
        "collective.bytes_per_step",
        mean_comm(&|c| c.stats.collective_bytes() as f64),
    );
    match w.kind {
        Kind::Alg1Uds => {
            m.set(
                "transport.wire_bytes_per_step",
                mean_comm(&|c| c.wire.map_or(0.0, |x| x.bytes_sent as f64)),
            );
            let (msgs, bytes) = run.comm.iter().fold((0u64, 0u64), |acc, c| {
                c.wire
                    .map_or(acc, |x| (acc.0 + x.msgs_sent, acc.1 + x.bytes_sent))
            });
            m.set(
                "transport.frame_overhead_frac",
                (WIRE_OVERHEAD_BYTES * msgs) as f64 / bytes.max(1) as f64,
            );
        }
        // in-memory envelopes carry the payload only
        Kind::Ca => {
            m.set(
                "transport.wire_bytes_per_step",
                mean_comm(&|c| c.stats.p2p_send_bytes() as f64),
            );
            m.set("transport.frame_overhead_frac", 0.0);
        }
        Kind::Serial { .. } => {
            m.set("transport.wire_bytes_per_step", 0.0);
            m.set("transport.frame_overhead_frac", 0.0);
        }
    }
    let overlap = agcm_obs::TraceReport::from_events(&traced.events).mean_overlap_efficiency();
    m.set("exchange.overlap_eff", overlap);

    // Algorithm 2 schedule
    match run.ca_group {
        Some((g, _, _)) => {
            m.set("ca.group", g as f64);
            let (swept, own) = traced.geom.iter().fold((0usize, 0usize), |a, r| {
                (a.0 + r.swept_pts, a.1 + r.sweep_interior_pts)
            });
            m.set(
                "ca.redundant_pts_frac",
                (swept as f64 - own as f64) / own.max(1) as f64,
            );
        }
        None => {
            m.set("ca.group", 0.0);
            m.set("ca.redundant_pts_frac", 0.0);
            notes
                .not_applicable
                .extend(["ca.group", "ca.redundant_pts_frac"]);
        }
    }

    // pool: the same step at 1 vs 2 workers (the reference runs 1)
    match w.kind {
        Kind::Serial { .. } => {
            m.set("pool.step_speedup", median(ref_walls) / median(&run.step_s));
        }
        _ => {
            m.set("pool.step_speedup", 0.0);
            notes.not_applicable.push("pool.step_speedup");
        }
    }

    // critical path + cost model
    let alg = match w.kind {
        Kind::Ca => Some(AlgKind::CommAvoiding),
        Kind::Alg1Uds => Some(AlgKind::OriginalYZ),
        Kind::Serial { .. } => None,
    };
    let walls = layers::step_walls(&traced.events, 0, steps);
    let imbalance: Vec<f64> = walls
        .values()
        .filter(|v| v.len() == ranks)
        .map(|v| v.iter().copied().fold(0.0, f64::max) / (v.iter().sum::<f64>() / ranks as f64))
        .collect();
    m.set("step.rank_imbalance", median(&imbalance));
    match alg {
        Some(alg) => {
            // step 0 bootstraps the C cache and the deferred smoothing, so
            // the steady-state schedule starts at step 1
            let cp = layers::critical_path(&traced.events, &w.cfg, alg, w.pgrid, 1, steps);
            m.set("step.compute_s", cp.compute_s);
            m.set("step.pack_s", cp.pack_s);
            m.set("step.wire_wait_s", cp.wire_wait_s);
            m.set("step.collective_s", cp.collective_s);
            notes.put_num("critpath.steps", cp.steps as f64);
            if !cp.errors.is_empty() {
                notes.fail(format!(
                    "trace does not match the static schedule: {}",
                    cp.errors.join("; ")
                ));
            }
            let p50 = median(&run.step_s);
            match &cp.fit {
                Some(fit) => {
                    m.set(
                        "model.step_rel_err",
                        (cp.predicted_step_s - p50).abs() / p50,
                    );
                    notes.put_str(
                        "model.fit",
                        &format!(
                            "{} alpha={:e} s beta={:e} s/B sync={:e} s gamma={:e} s rel_rmse={:.3} \
                             samples={} predicted_step_s={:.5}",
                            fit.terms.label(),
                            fit.alpha,
                            fit.beta,
                            fit.sync,
                            cp.gamma,
                            fit.rel_rmse(),
                            fit.residuals.len(),
                            cp.predicted_step_s
                        ),
                    );
                }
                None => {
                    m.set("model.step_rel_err", 0.0);
                    notes.fail("no exchange samples to fit the cost model".into());
                }
            }
        }
        None => {
            // one rank, nothing to wait for: the whole step is compute
            m.set(
                "step.compute_s",
                mean(&|s| per_step(s.in_step_sum_ns() as f64 * 1e-9)),
            );
            m.set("step.pack_s", 0.0);
            m.set("step.wire_wait_s", 0.0);
            m.set("step.collective_s", 0.0);
            m.set("model.step_rel_err", 0.0);
            notes.not_applicable.push("model.step_rel_err");
        }
    }

    // resilience
    match (&run.runner, &traced.ckpt_probe) {
        (Some(report), Some((write_s, bytes))) => {
            m.set("ckpt.write_s", *write_s);
            m.set("ckpt.bytes", *bytes as f64);
            m.set("ckpt.count", report.checkpoints as f64);
            let bare: f64 = run.bare_step_s.iter().sum();
            let full: f64 = run.step_s.iter().sum();
            m.set("resilience.overhead_frac", 1.0 - bare / full.max(1e-12));
        }
        _ => {
            for n in [
                "ckpt.write_s",
                "ckpt.bytes",
                "ckpt.count",
                "resilience.overhead_frac",
            ] {
                m.set(n, 0.0);
            }
            notes.not_applicable.extend([
                "ckpt.write_s",
                "ckpt.bytes",
                "ckpt.count",
                "resilience.overhead_frac",
            ]);
        }
    }

    // setup phases (medians over the untraced repetitions' set-ups)
    let med = |f: fn(&workload::Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    m.set("setup.model_s", med(|s| s.model_s));
    m.set("setup.init_s", med(|s| s.init_s));
    m.set("setup.connect_s", med(|s| s.connect_s));

    // memory
    let ws = run.working_set_bytes;
    m.set("mem.working_set_mb", ws / MB);
    m.set("mem.llc_ratio", llc.map_or(0.0, |b| ws / b as f64));

    // tracing cost: traced vs untraced median step
    m.set(
        "trace.overhead_frac",
        median(&traced.bare_step_s) / median(&run.bare_step_s) - 1.0,
    );
    m
}

//! The three workloads and the timed runs behind them.
//!
//! Every workload uses the paper's physics (`M = 3`, `Δt₁/Δt₂ = 60/600 s`,
//! Held–Suarez forcing) from the `perturbed_rest` initial condition whose
//! noise seed is the benchmark's `--seed`.  A run does a fixed number of
//! steps, derived from `--seconds` and the workload's nominal step time, so
//! two builds measured with the same settings do identical work.

use crate::check::Tolerance;
use crate::host;
use agcm_comm::{CommResult, Communicator, Endpoint, StatsSnapshot, Universe, WireStats};
use agcm_core::analysis::CaMode;
use agcm_core::diagnostics::{global_budget, local_budget};
use agcm_core::dycore::Engine;
use agcm_core::par::schedule::{alg2_step, StepOp};
use agcm_core::par::{gather_ca_state, Alg1Model, CaModel, GlobalState};
use agcm_core::resilience::{
    write_checkpoint, Checkpoint, ResilienceConfig, Resilient, ResilientRunner, RunReport,
};
use agcm_core::serial::{Iteration, SerialModel};
use agcm_core::{init, pool, ModelConfig, State};
use agcm_mesh::ProcessGrid;
use agcm_obs as obs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Peak `p'_sa` of the initial surface-pressure bump \[Pa\].
const IC_BUMP_PA: f64 = 200.0;
/// Amplitude of the seeded noise on `Φ`.
const IC_NOISE: f64 = 1.0;
/// Steps between durable checkpoints of the resilient workload.
pub const CKPT_EVERY: u64 = 10;
/// Fewest steps any run does.
const MIN_STEPS: usize = 2;
/// Prognostic-state-sized arrays every integrator keeps per rank (the
/// state plus seven scratch states).
const STATES_PER_MODEL: usize = 8;

/// Which integrator a workload drives, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `SerialModel` (approximate iteration) on one rank with this many
    /// intra-rank pool workers.
    Serial {
        /// Pool workers.
        threads: usize,
    },
    /// `CaModel` (Algorithm 2) over the in-process mpsc transport.
    Ca,
    /// `Alg1Model` over Unix-domain sockets under `ResilientRunner`, with a
    /// durable checkpoint every [`CKPT_EVERY`] steps.
    Alg1Uds,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Model configuration (mesh + physics).
    pub cfg: ModelConfig,
    /// Integrator and runtime.
    pub kind: Kind,
    /// Rank decomposition.
    pub pgrid: ProcessGrid,
    /// Step time on the reference host (2-core Xeon KVM guest), used to
    /// turn `--seconds` into a step count.
    pub nominal_step_s: f64,
    /// Iteration variant of the serial reference.
    pub ref_variant: Iteration,
    /// Pool workers of the serial reference.
    pub ref_threads: usize,
    /// How close the final state must be to the reference.
    pub tolerance: Tolerance,
}

/// The paper physics on a `nx × ny × nz` mesh.
pub fn paper_physics(nx: usize, ny: usize, nz: usize) -> ModelConfig {
    ModelConfig {
        nx,
        ny,
        nz,
        ..ModelConfig::paper_50km()
    }
}

/// Every workload, in `BENCHMARK.json` order.
///
/// There is no single-thread serial workload: on the 2-core reference
/// host one busy core with the other idle switches between about 0.5 and
/// 0.9 s per 2° step for stretches of tens of seconds, while the same step
/// on both cores stays within a few percent.  Its median moved by more
/// than any bound the gate allows between runs of the same build.  The
/// one-worker serial step is still timed, as the reference of
/// `pool-2deg-t2`, and reported through `pool.step_speedup`.
pub fn all() -> Vec<Workload> {
    let two_deg = paper_physics(180, 90, 30);
    vec![
        Workload {
            name: "pool-2deg-t2",
            cfg: two_deg.clone(),
            kind: Kind::Serial { threads: 2 },
            pgrid: ProcessGrid::serial(),
            nominal_step_s: 0.5,
            ref_variant: Iteration::Approximate,
            ref_threads: 1,
            tolerance: Tolerance::Bitwise,
        },
        Workload {
            name: "ca-2deg-p2",
            cfg: two_deg,
            kind: Kind::Ca,
            pgrid: ProcessGrid::yz(2, 1).expect("2x1 grid"),
            nominal_step_s: 0.5,
            ref_variant: Iteration::Approximate,
            ref_threads: 2,
            tolerance: Tolerance::Bitwise,
        },
        Workload {
            name: "alg1-uds-ckpt",
            cfg: paper_physics(96, 48, 20),
            kind: Kind::Alg1Uds,
            pgrid: ProcessGrid::yz(1, 2).expect("1x2 grid"),
            nominal_step_s: 0.085,
            ref_variant: Iteration::Exact,
            ref_threads: 2,
            // the z split re-associates the column sums of C
            tolerance: Tolerance::Abs(1e-8),
        },
    ]
}

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// Steps one run does for a `seconds` budget.
    pub fn steps_for(&self, seconds: f64) -> usize {
        let n = ((seconds / self.nominal_step_s).round() as usize).max(MIN_STEPS);
        match self.kind {
            // whole checkpoint intervals, so every run checkpoints the
            // same share of its steps
            Kind::Alg1Uds => n.div_ceil(CKPT_EVERY as usize) * CKPT_EVERY as usize,
            _ => n,
        }
    }

    /// Ranks of the decomposition.
    pub fn ranks(&self) -> usize {
        self.pgrid.size()
    }

    /// Intra-rank pool workers of the measured run.
    pub fn threads_per_rank(&self) -> usize {
        match self.kind {
            Kind::Serial { threads } => threads,
            _ => 1,
        }
    }

    /// Transport the ranks talk over.
    pub fn transport(&self) -> &'static str {
        match self.kind {
            Kind::Serial { .. } => "none",
            Kind::Ca => "mpsc",
            Kind::Alg1Uds => "uds",
        }
    }
}

/// Settings of one measured run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Initial-condition seed.
    pub seed: u64,
    /// Steps to integrate.
    pub steps: usize,
    /// Repetition number within the benchmark run; names the run's sockets
    /// and checkpoint directory.
    pub rep: usize,
    /// Record `agcm_obs` spans over the step loop.
    pub traced: bool,
    /// Scratch directory for sockets and checkpoints.
    pub run_dir: PathBuf,
}

/// Wall time of one set-up, split by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Transport up: ranks spawned and (UDS) sockets connected.
    pub connect_s: f64,
    /// Model construction, including communicator splits.
    pub model_s: f64,
    /// Initial condition, and the barrier that ends set-up.
    pub init_s: f64,
    /// Everything up to the first step.
    pub total_s: f64,
}

/// Communication counters of one rank over the step loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankComm {
    /// Logical traffic (shared by every communicator of the rank).
    pub stats: StatsSnapshot,
    /// Wire traffic (byte-stream transports only).
    pub wire: Option<WireStats>,
    /// Halo exchanges completed inside steps.
    pub exchanges: u64,
}

/// Per-rank geometry the reconciliation needs.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankGeom {
    /// Owned grid points.
    pub interior_pts: usize,
    /// Row-points one polar-filter application transforms.
    pub filter_pts: usize,
    /// Points the adaptation/advection sweeps of one step cover, and the
    /// owned points of the same sweeps (Algorithm 2 only).
    pub swept_pts: usize,
    /// See `swept_pts`.
    pub sweep_interior_pts: usize,
    /// Tile height the engine's autotuner picked for the fused sweeps.
    pub tile_j: usize,
}

/// Everything one measured run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Steps completed.
    pub steps: usize,
    /// Wall time of each attempted step as the user sees it (rank 0; under
    /// the runner, start to start, so checkpoints and health rounds land
    /// in the step they delay).
    pub step_s: Vec<f64>,
    /// Wall time of each model step alone.
    pub bare_step_s: Vec<f64>,
    /// The whole integration loop, including the deferred smoothing,
    /// checkpoints and stalls.
    pub loop_s: f64,
    /// The timed set-up.
    pub setup: Setup,
    /// Process `VmHWM` right after the loop \[MB\].
    pub rss_mb: f64,
    /// Final global state.
    pub state: Option<GlobalState>,
    /// Total mass before and after the loop.
    pub mass: (f64, f64),
    /// Step attempts.
    pub attempted: u64,
    /// Attempts that errored or were rolled back.
    pub failed: u64,
    /// First error, if any.
    pub error: Option<String>,
    /// Per-rank counters over the loop.
    pub comm: Vec<RankComm>,
    /// Per-rank geometry.
    pub geom: Vec<RankGeom>,
    /// Algorithm 2's `(g, fused smoothing, g_a)`.
    pub ca_group: Option<(usize, bool, usize)>,
    /// The resilient runner's report.
    pub runner: Option<RunReport>,
    /// Median durable checkpoint write time and file size (traced runs of
    /// the resilient workload).
    pub ckpt_probe: Option<(f64, u64)>,
    /// Computed model arrays, all ranks \[bytes\].
    pub working_set_bytes: f64,
    /// Spans recorded over the loop (traced runs).
    pub events: Vec<obs::Event>,
}

/// Run `w` once as `o` says.
pub fn run(w: &Workload, o: &RunOpts) -> Run {
    match w.kind {
        Kind::Serial { threads } => pool::with_workers(threads, || run_serial(w, o)),
        Kind::Ca | Kind::Alg1Uds => run_parallel(w, o),
    }
}

/// The serial reference: `steps` steps of `w.ref_variant` at
/// `w.ref_threads` workers.  Returns the final state and each step's wall.
pub fn reference(w: &Workload, seed: u64, steps: usize) -> (GlobalState, Vec<f64>) {
    pool::with_workers(w.ref_threads, || {
        let mut m = SerialModel::new(&w.cfg, w.ref_variant).expect("valid reference mesh");
        let ic = init::perturbed_rest(m.geom(), IC_BUMP_PA, IC_NOISE, seed);
        m.set_state(&ic);
        let walls = (0..steps)
            .map(|_| {
                let t = Instant::now();
                m.step();
                t.elapsed().as_secs_f64()
            })
            .collect();
        (GlobalState::from_serial(&m.state, m.geom()), walls)
    })
}

fn since(t: Instant, u: Instant) -> f64 {
    u.duration_since(t).as_secs_f64()
}

fn run_serial(w: &Workload, o: &RunOpts) -> Run {
    let t0 = Instant::now();
    let mut m = SerialModel::new(&w.cfg, Iteration::Approximate).expect("valid mesh");
    let t1 = Instant::now();
    let ic = init::perturbed_rest(m.geom(), IC_BUMP_PA, IC_NOISE, o.seed);
    m.set_state(&ic);
    let t2 = Instant::now();
    let setup = Setup {
        connect_s: 0.0,
        model_s: since(t0, t1),
        init_s: since(t1, t2),
        total_s: since(t0, t2),
    };
    let mass0 = local_budget(m.geom(), &m.state).mass;
    if o.traced {
        obs::reset();
        obs::enable();
    }
    let t_loop = Instant::now();
    let step_s: Vec<f64> = (0..o.steps)
        .map(|_| {
            let t = Instant::now();
            m.step();
            t.elapsed().as_secs_f64()
        })
        .collect();
    let loop_s = t_loop.elapsed().as_secs_f64();
    if o.traced {
        obs::disable();
    }
    let rss_mb = host::peak_rss_mb();
    let events = if o.traced { obs::drain() } else { Vec::new() };
    Run {
        steps: o.steps,
        bare_step_s: step_s.clone(),
        step_s,
        loop_s,
        setup,
        rss_mb,
        mass: (mass0, local_budget(m.geom(), &m.state).mass),
        state: Some(GlobalState::from_serial(&m.state, m.geom())),
        attempted: o.steps as u64,
        comm: vec![RankComm::default()],
        geom: vec![rank_geom(&m.engine, None)],
        working_set_bytes: model_bytes(&m.engine),
        events,
        ..Run::default()
    }
}

/// What one rank of a parallel run hands back.
#[derive(Default)]
struct RankOut {
    setup: Setup,
    step_s: Vec<f64>,
    bare_step_s: Vec<f64>,
    loop_s: f64,
    rss_mb: f64,
    state: Option<GlobalState>,
    mass: (f64, f64),
    attempted: u64,
    failed: u64,
    error: Option<String>,
    comm: RankComm,
    geom: RankGeom,
    ca_group: Option<(usize, bool, usize)>,
    runner: Option<RunReport>,
    ckpt_probe: Option<(f64, u64)>,
    model_bytes: f64,
}

fn run_parallel(w: &Workload, o: &RunOpts) -> Run {
    let p = w.ranks();
    let t0 = Instant::now();
    let outs = match w.kind {
        Kind::Ca => Universe::run(p, |comm| ca_rank(w, o, comm, t0)),
        Kind::Alg1Uds => {
            std::fs::create_dir_all(ckpt_dir(o)).expect("checkpoint directory");
            let ep = Endpoint::Unix(o.run_dir.join(format!("uds{}", o.rep)));
            Universe::run_sockets(p, &ep, |comm| alg1_rank(w, o, comm, t0))
        }
        Kind::Serial { .. } => unreachable!("serial workloads run in-line"),
    };
    // set-up ends when the slowest rank passes the barrier
    let setup = Setup {
        total_s: outs.iter().map(|r| r.setup.total_s).fold(0.0, f64::max),
        ..outs[0].setup
    };
    let events = if o.traced { obs::drain() } else { Vec::new() };
    let first_error = outs.iter().find_map(|r| r.error.clone());
    let mut outs = outs.into_iter();
    let r0 = outs.next().expect("rank 0");
    let rest: Vec<RankOut> = outs.collect();
    let all = std::iter::once(&r0).chain(&rest);
    let comm = all.clone().map(|r| r.comm).collect();
    let geom = all.clone().map(|r| r.geom).collect();
    let working_set_bytes = all.clone().map(|r| r.model_bytes).sum();
    let failed = all.clone().map(|r| r.failed).max().unwrap_or(0);
    Run {
        steps: o.steps,
        step_s: r0.step_s,
        bare_step_s: r0.bare_step_s,
        loop_s: r0.loop_s,
        setup,
        rss_mb: r0.rss_mb,
        state: r0.state,
        mass: r0.mass,
        attempted: r0.attempted,
        failed,
        error: first_error,
        comm,
        geom,
        ca_group: r0.ca_group,
        runner: r0.runner,
        ckpt_probe: r0.ckpt_probe,
        working_set_bytes,
        events,
    }
}

/// Set-up phases common to both parallel workloads: the transport is up
/// when the rank's closure starts; `build` constructs the model.
fn timed_setup<M>(
    comm: &mut Communicator,
    t0: Instant,
    build: impl FnOnce(&mut Communicator) -> M,
    init: impl FnOnce(&mut M),
) -> (M, Setup) {
    let t_conn = Instant::now();
    let mut m = build(comm);
    let t_model = Instant::now();
    init(&mut m);
    comm.barrier().expect("set-up barrier");
    let t_ready = Instant::now();
    (
        m,
        Setup {
            connect_s: since(t0, t_conn),
            model_s: since(t_conn, t_model),
            init_s: since(t_model, t_ready),
            total_s: since(t0, t_ready),
        },
    )
}

/// Start tracing collectively: rank 0 switches the process-wide tracer on
/// and the barrier keeps every rank out of the loop until it has.
fn start_trace(comm: &Communicator, traced: bool) {
    if traced {
        if comm.rank() == 0 {
            obs::reset();
            obs::enable();
        }
        comm.barrier().expect("trace barrier");
    }
}

fn stop_trace(comm: &Communicator, traced: bool) {
    if traced {
        comm.barrier().expect("trace barrier");
        if comm.rank() == 0 {
            obs::disable();
        }
    }
}

fn comm_delta(comm: &Communicator, s0: StatsSnapshot, w0: Option<WireStats>) -> RankComm {
    RankComm {
        stats: comm.stats().snapshot().delta(&s0),
        wire: comm.wire_stats().zip(w0).map(|(w1, w0)| w1.delta(&w0)),
        exchanges: 0,
    }
}

fn ca_rank(w: &Workload, o: &RunOpts, comm: &mut Communicator, t0: Instant) -> RankOut {
    let (mut m, setup) = timed_setup(
        comm,
        t0,
        |c| CaModel::new(&w.cfg, w.pgrid, c).expect("valid CA decomposition"),
        |m| {
            let ic = init::perturbed_rest(m.geom(), IC_BUMP_PA, IC_NOISE, o.seed);
            m.set_state(&ic);
        },
    );
    let comm = &*comm;
    let mass0 = global_budget(m.geom(), &m.state, comm).expect("mass").mass;
    start_trace(comm, o.traced);
    let (s0, w0, e0) = (
        comm.stats().snapshot(),
        comm.wire_stats(),
        m.exchange_count(),
    );
    let mut out = RankOut {
        setup,
        ..RankOut::default()
    };
    let t_loop = Instant::now();
    for i in 0..o.steps {
        let t = Instant::now();
        let res = m.step(comm);
        out.step_s.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        if let Err(e) = res {
            out.error = Some(format!("rank {} step {i}: {e}", comm.rank()));
            out.failed = (o.steps - i) as u64;
            break;
        }
    }
    // the epilogue exchange of `finish` belongs to no step
    let mut rc = comm_delta(comm, s0, w0);
    rc.exchanges = m.exchange_count() - e0;
    if out.error.is_none() {
        if let Err(e) = m.finish(comm) {
            out.error = Some(format!("rank {} finish: {e}", comm.rank()));
            out.failed = o.steps as u64;
        }
    }
    out.loop_s = t_loop.elapsed().as_secs_f64();
    stop_trace(comm, o.traced);
    out.bare_step_s = out.step_s.clone();
    out.rss_mb = host::peak_rss_mb();
    out.comm = rc;
    out.mass = (
        mass0,
        global_budget(m.geom(), &m.state, comm).expect("mass").mass,
    );
    out.state = gather_ca_state(&m, comm).expect("gather");
    out.ca_group = Some((m.group, m.fused_smoothing, m.group_adv));
    out.geom = rank_geom(&m.engine, Some((&w.cfg, &w.pgrid)));
    out.model_bytes = model_bytes(&m.engine);
    out
}

/// A [`Resilient`] model that records when each step attempt starts and
/// how long the model step itself took — the runner's own bookkeeping
/// (health consensus, checkpoints, rollbacks) lands between them.
struct Timed<'a, M> {
    inner: &'a mut M,
    starts: Vec<Instant>,
    bare_s: Vec<f64>,
}

impl<M: Resilient> Resilient for Timed<'_, M> {
    fn capture(&self) -> Checkpoint {
        self.inner.capture()
    }
    fn restore(&mut self, ck: &Checkpoint) {
        self.inner.restore(ck)
    }
    fn set_degraded(&mut self, on: bool) {
        self.inner.set_degraded(on)
    }
    fn resync(&mut self, epoch: u64) {
        self.inner.resync(epoch)
    }
    fn steps_done(&self) -> u64 {
        self.inner.steps_done()
    }
    fn step_once(&mut self, comm: &Communicator) -> CommResult<()> {
        let t = Instant::now();
        self.starts.push(t);
        let res = self.inner.step_once(comm);
        self.bare_s.push(t.elapsed().as_secs_f64());
        res
    }
    fn finish_run(&mut self, comm: &Communicator) -> CommResult<()> {
        self.inner.finish_run(comm)
    }
    fn state_ref(&self) -> &State {
        self.inner.state_ref()
    }
}

fn alg1_rank(w: &Workload, o: &RunOpts, comm: &mut Communicator, t0: Instant) -> RankOut {
    let ckpt_dir = ckpt_dir(o);
    let ((mut m, mut runner), setup) = timed_setup(
        comm,
        t0,
        |c| {
            let m = Alg1Model::new(&w.cfg, w.pgrid, c).expect("valid Y-Z decomposition");
            let runner = ResilientRunner::new(
                c,
                ResilienceConfig {
                    checkpoint_interval: CKPT_EVERY,
                    checkpoint_dir: Some(ckpt_dir.clone()),
                    disk_keep: 2,
                    ..ResilienceConfig::default()
                },
            )
            .expect("control communicator");
            (m, runner)
        },
        |(m, _)| {
            let ic = init::perturbed_rest(m.geom(), IC_BUMP_PA, IC_NOISE, o.seed);
            m.set_state(&ic);
        },
    );
    let comm = &*comm;
    let mass0 = global_budget(m.geom(), &m.state, comm).expect("mass").mass;
    start_trace(comm, o.traced);
    let (s0, w0, e0) = (
        comm.stats().snapshot(),
        comm.wire_stats(),
        m.exchange_count(),
    );
    let mut timed = Timed {
        inner: &mut m,
        starts: Vec::with_capacity(o.steps),
        bare_s: Vec::with_capacity(o.steps),
    };
    let t_loop = Instant::now();
    let res = runner.run(&mut timed, comm, o.steps as u64);
    let t_end = Instant::now();
    let Timed { starts, bare_s, .. } = timed;
    let mut out = RankOut {
        setup,
        loop_s: since(t_loop, t_end),
        bare_step_s: bare_s,
        ..RankOut::default()
    };
    // step i's wall runs from its start to the next attempt's start
    let ends = starts.iter().skip(1).copied().chain([t_end]);
    out.step_s = starts.iter().zip(ends).map(|(&a, b)| since(a, b)).collect();
    let mut rc = comm_delta(comm, s0, w0);
    rc.exchanges = m.exchange_count() - e0;
    stop_trace(comm, o.traced);
    let report = runner.report().clone();
    out.attempted = report.attempted_steps;
    out.failed = report.attempted_steps.saturating_sub(o.steps as u64);
    if let Err(e) = res {
        out.error = Some(format!("rank {}: {e}", comm.rank()));
        out.failed = out.attempted;
    }
    out.runner = Some(report);
    out.rss_mb = host::peak_rss_mb();
    out.comm = rc;
    if o.traced {
        out.ckpt_probe = Some(probe_checkpoint(&m.capture(), &o.run_dir, comm.rank()));
    }
    out.mass = (
        mass0,
        global_budget(m.geom(), &m.state, comm).expect("mass").mass,
    );
    out.state = m.gather_state(comm).expect("gather");
    out.geom = rank_geom(&m.engine, None);
    out.model_bytes = model_bytes(&m.engine);
    out
}

/// Where the resilient runner of repetition `o.rep` keeps its checkpoints.
fn ckpt_dir(o: &RunOpts) -> PathBuf {
    o.run_dir.join(format!("ckpt{}", o.rep))
}

/// Median time of a few direct durable `write_checkpoint` calls, and the
/// file size.
fn probe_checkpoint(ck: &Checkpoint, dir: &Path, rank: usize) -> (f64, u64) {
    const WRITES: usize = 5;
    let path = dir.join(format!("probe_rank{rank}.agcmckpt"));
    let times: Vec<f64> = (0..WRITES)
        .map(|_| {
            let t = Instant::now();
            write_checkpoint(&path, ck).expect("checkpoint write");
            t.elapsed().as_secs_f64()
        })
        .collect();
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&path);
    (crate::stats::median(&times), bytes)
}

/// Geometry facts of one rank.  With `ca = Some((cfg, pgrid))` also the
/// points Algorithm 2's dilated sweeps cover per step.
fn rank_geom(engine: &Engine, ca: Option<(&ModelConfig, &ProcessGrid)>) -> RankGeom {
    let g = &engine.geom;
    let interior = g.interior();
    let y0 = g.sub.y.start;
    let active_rows = (y0..y0 + g.ny)
        .filter(|&gj| engine.filter.is_active(gj))
        .count();
    let mut rg = RankGeom {
        interior_pts: g.nx * g.ny * g.nz,
        filter_pts: active_rows * g.nx * (3 * g.nz + 1),
        tile_j: engine.tile_j(),
        ..RankGeom::default()
    };
    if let Some((cfg, pgrid)) = ca {
        for op in alg2_step(cfg, pgrid, CaMode::Grouped) {
            let StepOp::Compute(c) = op else { continue };
            if !(c.op.starts_with("adaptation") || c.op.starts_with("advection")) {
                continue;
            }
            let d = c.dilate as isize;
            let region = interior.dilate(d, d, g.ny, g.nz, g.halo, g.grow_sides());
            rg.swept_pts += region.area() * g.nx;
            rg.sweep_interior_pts += interior.area() * g.nx;
        }
    }
    rg
}

/// Computed bytes of one rank's model arrays: the state and its seven
/// scratch copies plus the diagnostics, halos included.
fn model_bytes(engine: &Engine) -> f64 {
    let g = &engine.geom;
    let h = g.halo;
    let plane = (g.nx + h.xm + h.xp) * (g.ny + h.ym + h.yp);
    let levels = g.nz + h.zm + h.zp;
    let state = 3 * plane * levels + plane;
    // Diag: D(P), φ' (levels), g_w (levels + 1), and four surface fields
    let diag = 3 * plane * levels + plane + 4 * plane;
    8.0 * (STATES_PER_MODEL * state + diag) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_counts_follow_the_budget() {
        let w = find("alg1-uds-ckpt").unwrap();
        assert_eq!(w.steps_for(10.0), 120);
        assert_eq!(w.steps_for(0.1), 10);
        let s = find("pool-2deg-t2").unwrap();
        assert_eq!(s.steps_for(10.0), 20);
        assert_eq!(s.steps_for(0.0), MIN_STEPS);
    }

    #[test]
    fn workloads_use_paper_physics() {
        for w in all() {
            assert_eq!(w.cfg.m_iters, 3, "{}", w.name);
            assert_eq!((w.cfg.dt1, w.cfg.dt2), (60.0, 600.0));
            assert!(w.cfg.held_suarez);
            assert_eq!(
                w.ranks() * w.threads_per_rank(),
                match w.kind {
                    Kind::Serial { threads } => threads,
                    _ => 2,
                }
            );
        }
    }
}

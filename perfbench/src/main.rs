//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One run generates its workload's matrix
//! and right-hand sides from the seed, sets up the solver, computes a
//! sim-backend reference solution, then times the workload's requests
//! (warm direct solves, or a served open and closed loop) in rounds,
//! checking every answer bit for bit against the reference. The last line
//! of standard output is one JSON object: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. Every timed phase runs
//! for a fixed share of `--seconds`. See
//! `perfbench/README.md` for the workloads, the metrics and the layers they
//! pin.

mod catalog;
mod env;
mod serve;
mod stats;
mod trace;
mod workload;

use catalog::Values;
use lufactor::{factorize_numeric, Factorized};
use simgrid::Category;
use sptrsv::schedule::ScheduleKey;
use sptrsv::{
    Algorithm, Arch, Backend, BatchPolicy, ExecutorKind, Plan, QueueFullPolicy, ServiceConfig,
    SolveOutcome, Solver3d, SolverConfig, SolverService,
};
use stats::{median, percentile};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Open, Recorder, Span};
use workload::{Columns, Request, Workload, RHS_COLS};

/// Untimed set-ups before the timed phases. Each round then sets up again,
/// timed, at least once and until it has spent its share of `SETUP_SECONDS`,
/// so that the set-ups sample the whole run and not one stretch of a shared
/// host; `setup_s` is the median of those in the least-stolen rounds.
const SETUP_REPS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;
/// Repetitions of each per-layer probe (floor, P = 1 executors, plan).
const PROBE_REPS: usize = 15;
/// Simulated solves behind the `simgrid.*` metrics.
const SIM_REPS: usize = 3;
/// Rounds the timed phases are interleaved in. The end-to-end figures pool
/// the samples of the `KEPT_ROUNDS` rounds in which the host took the least
/// CPU time from the machine (its steal time): on a shared host a stolen
/// stretch can double a round's latency.
const ROUNDS: usize = 16;
const KEPT_ROUNDS: usize = 8;
/// Solves each round times at least, so that its median has 10 beyond it
/// even when the machine is slow.
const ROUND_SOLVES: usize = 20;
/// Open requests the service admits: a stall of half a second at the
/// highest offered rate is absorbed, a refused submit is a failure.
const QUEUE_CAPACITY: usize = 128;
/// Closed-loop requests in flight: four full batches, so the service finds
/// a full batch waiting whenever one ends and the figure is its batch rate,
/// not how promptly the load generator refills the queue.
const OUTSTANDING: usize = 32;
/// Largest relative residual a reference solution may have.
const MAX_RESIDUAL: f64 = 1e-10;
/// A run that has not finished by then is a stall: it fails.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} outside (0, 120]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
        std::process::exit(2);
    });
    let defined = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}; run from the repository root"))
        .and_then(|json| {
            if !catalog::defined_workloads(&json)?
                .iter()
                .any(|w| w == args.workload.name)
            {
                return Err(format!(
                    "BENCHMARK.json does not declare {}",
                    args.workload.name
                ));
            }
            catalog::defined_metrics(&json, args.traced)
        })
        .unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        });
    let out_dir = std::path::Path::new("perfbench/out");
    // The process backend's rendezvous sockets stay inside the checkout.
    std::env::set_var("SPTRSV_PROC_DIR", out_dir.join("proc"));
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("FAIL stall: the run did not finish within {WATCHDOG:?}");
        std::process::exit(3);
    });

    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name, args.seed, args.seconds, args.traced as u8
    );
    println!("{}", env::header());
    let mut ledger = Ledger::default();
    let (values, spans) = match run(&args, &mut ledger) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if args.traced {
        if let Err(e) = write_spans(out_dir, &args, &spans) {
            eprintln!("perfbench: writing spans: {e}");
            std::process::exit(1);
        }
    }
    let metrics = values.render(args.traced, &defined).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed
    );
    if ledger.failed > 0 {
        std::process::exit(1);
    }
}

/// Checked operations: every solve, served request and probe counts as
/// one attempt; each failure is printed as it happens.
#[derive(Default)]
pub struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.attempted += 1;
        } else {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        eprintln!("FAIL {what}");
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Bitwise equality, so that `-0.0` and `0.0` differ. (A NaN reference
/// fails its residual check, so matching NaN bits cannot pass a run.)
pub fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn solver_config(
    (px, py, pz): (usize, usize, usize),
    nrhs: usize,
    backend: Backend,
    executor: ExecutorKind,
) -> SolverConfig {
    SolverConfig {
        px,
        py,
        pz,
        nrhs,
        algorithm: Algorithm::New3d,
        arch: Arch::Cpu,
        machine: simgrid::MachineModel::cori_haswell(),
        chaos_seed: 0,
        fault: Default::default(),
        backend,
        executor,
    }
}

/// The schedule family of `Algorithm::New3d` on CPU ranks.
const NEW3D_KEY: ScheduleKey = ScheduleKey {
    baseline: false,
    tree_comm: true,
};

/// Optional span recording around a call.
struct Tracer(Option<Recorder>);

impl Tracer {
    fn open(&mut self, name: &'static str, parent: Option<u64>, op: u64) -> Option<Open> {
        self.0.as_mut().map(|r| r.open(name, parent, op))
    }

    fn close(&mut self, open: Option<Open>) {
        if let (Some(r), Some(o)) = (self.0.as_mut(), open) {
            r.close(o);
        }
    }

    fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, parent, op);
        let out = f();
        self.close(open);
        out
    }
}

/// Generated matrix to ready solver: analyze, permute, factorize, plan and
/// compile the schedule. With `serve`, also plan a second solver on the
/// same factor and start a service on it.
fn setup(
    a: &sparse::CsrMatrix,
    cfg: &SolverConfig,
    serve: bool,
    tr: &mut Tracer,
    rep: u64,
) -> Result<(Solver3d, Option<SolverService>), String> {
    let root = tr.open("setup", None, rep);
    let pid = root.as_ref().map(Open::id);
    let (nd, sym) = tr.span("ordering.analyze", pid, rep, || {
        ordering::analyze(a, cfg.pz, &Default::default())
    });
    let pa = tr.span("setup.permute", pid, rep, || a.permute_sym(&nd.perm));
    let lu = tr
        .span("lufactor.numeric", pid, rep, || factorize_numeric(&pa, sym))
        .map_err(|e| format!("numeric factorization failed: {e:?}"))?;
    let fact = Arc::new(Factorized { nd, pa, lu });
    let new = || Solver3d::new(Arc::clone(&fact), cfg.clone());
    let solver = tr.span("solver.new", pid, rep, new);
    if !serve {
        tr.close(root);
        return Ok((solver, None));
    }
    let served = tr.span("solver.new", pid, rep, new);
    let svc = tr.span("service.start", pid, rep, || {
        SolverService::start(
            served,
            ServiceConfig {
                batch: BatchPolicy {
                    max_batch: 8,
                    max_wait: Duration::from_micros(200),
                },
                queue_capacity: QUEUE_CAPACITY,
                max_request_width: 1,
                on_full: QueueFullPolicy::Reject,
            },
        )
    });
    tr.close(root);
    Ok((solver, Some(svc)))
}

/// The reference solution of every generated column: one sim-backend solve
/// on `solver`'s plan. Backends and executors are bit-identical on one
/// plan, so every solve on it must reproduce this exactly.
fn reference(
    a: &sparse::CsrMatrix,
    solver: &Solver3d,
    b: &[f64],
    ledger: &mut Ledger,
) -> Result<Vec<f64>, String> {
    let sim_all = SolverConfig {
        backend: Backend::Sim,
        nrhs: RHS_COLS,
        ..solver.config().clone()
    };
    let xref = catch_unwind(AssertUnwindSafe(|| {
        sptrsv::solve_planned(solver.plan(), b, &sim_all)
    }))
    .map_err(|_| "the reference sim solve panicked".to_string())?
    .x;
    let n = a.nrows();
    for c in 0..RHS_COLS {
        let r = c * n..(c + 1) * n;
        let res = sparse::rel_residual_inf(a, &xref[r.clone()], &b[r], 1);
        // A solve bit-identical to this reference has this residual too.
        ledger.check(res <= MAX_RESIDUAL, || {
            format!("reference column {c}: relative residual {res:e} above {MAX_RESIDUAL:e}")
        });
    }
    Ok(xref)
}

/// Seconds of each round given to each timed phase; 0 skips the phase.
struct Phases {
    /// Back-to-back `Solver3d::solve` calls (in a traced run, twice: once
    /// untraced and once traced).
    direct: f64,
    /// Open-loop serving at the workload's fixed rate.
    open: f64,
    /// Closed-loop serving with `OUTSTANDING` requests in flight.
    closed: f64,
}

impl Phases {
    /// An untraced run times only the workload's own requests, with no
    /// other threads about; a traced run times every phase, since every
    /// workload prints every per-layer metric.
    fn of(request: Request, traced: bool, round_s: f64) -> Self {
        let (direct, open, closed) = match (traced, request) {
            (true, _) => (0.4, 0.3, 0.3),
            (false, Request::Solve) => (1.0, 0.0, 0.0),
            (false, Request::Serve) => (0.0, 0.5, 0.5),
        };
        Phases {
            direct: direct * round_s,
            open: open * round_s,
            closed: closed * round_s,
        }
    }

    fn serves(&self) -> bool {
        self.open > 0.0
    }
}

/// One round's end-to-end samples.
#[derive(Default)]
struct Round {
    /// Direct solve wall times.
    solve_us: Vec<f64>,
    /// Open-loop request latencies.
    serve_us: Vec<f64>,
    /// Closed-loop requests completed in the round's window.
    completed: usize,
    /// Set-up times.
    setup_s: Vec<f64>,
    /// Host steal ticks during the round, where the kernel reports them.
    steal: Option<u64>,
}

impl Round {
    /// The round's progress line.
    fn progress(&self, index: usize, phases: &Phases) -> String {
        let mut line = format!("# round {index}:");
        if phases.direct > 0.0 {
            let _ = write!(line, " solve_us_p50 {:.1}", mid(&self.solve_us));
        }
        if phases.serves() {
            let _ = write!(
                line,
                " serve.p50_us {:.1} serve.solves_per_s {:.1}",
                mid(&self.serve_us),
                self.completed as f64 / phases.closed
            );
        }
        match self.steal {
            Some(t) => write!(line, " steal_ticks {t}"),
            None => write!(line, " steal_ticks unknown"),
        }
        .expect("writing to a String");
        line
    }
}

/// The `KEPT_ROUNDS` rounds with the least steal, or every round when the
/// steal time is unknown.
fn least_stolen(rounds: &[Round]) -> Vec<&Round> {
    let mut kept: Vec<&Round> = rounds.iter().collect();
    if kept.iter().all(|r| r.steal.is_some()) {
        kept.sort_by_key(|r| r.steal); // stable: ties keep round order
        kept.truncate(KEPT_ROUNDS);
    }
    kept
}

/// One solve's figures at the transport layer.
struct Sample {
    wall_us: f64,
    makespan_us: f64,
    xy_msgs: f64,
    z_msgs: f64,
    xy_bytes: f64,
    z_bytes: f64,
    xy_wait_share: f64,
    z_wait_share: f64,
    z_share: f64,
    fmod_stalls: f64,
    /// Slowest rank's L- and U-solve phase times.
    l_us: f64,
    u_us: f64,
}

impl Sample {
    fn of(out: &SolveOutcome, wall: Duration) -> Self {
        let sum =
            |f: &dyn Fn(&simgrid::RankStats) -> u64| out.stats.iter().map(f).sum::<u64>() as f64;
        let max_time = |c: Category| {
            out.stats
                .iter()
                .map(|s| s.time[c as usize])
                .fold(0.0, f64::max)
                / out.makespan
        };
        Sample {
            wall_us: wall.as_secs_f64() * 1e6,
            makespan_us: out.makespan * 1e6,
            xy_msgs: sum(&|s| s.msgs_sent[Category::XyComm as usize]),
            z_msgs: sum(&|s| s.msgs_sent[Category::ZComm as usize]),
            xy_bytes: sum(&|s| s.bytes_sent[Category::XyComm as usize]),
            z_bytes: sum(&|s| s.bytes_sent[Category::ZComm as usize]),
            xy_wait_share: max_time(Category::XyComm),
            z_wait_share: max_time(Category::ZComm),
            z_share: out.phases.iter().map(|p| p.z_wall).fold(0.0, f64::max) / out.makespan,
            fmod_stalls: out.metrics.counter("pass.fmod_stalls") as f64,
            l_us: out.phases.iter().map(|p| p.l_wall).fold(0.0, f64::max) * 1e6,
            u_us: out.phases.iter().map(|p| p.u_wall).fold(0.0, f64::max) * 1e6,
        }
    }
}

/// Solve back to back until `seconds` have passed (at least `min` solves),
/// checking each answer. Spans named `span` wrap each call when traced.
#[allow(clippy::too_many_arguments)]
fn solve_loop(
    solver: &Solver3d,
    cols: &Columns<'_>,
    nrhs: usize,
    seconds: f64,
    min: usize,
    tr: &mut Tracer,
    span: &'static str,
    ledger: &mut Ledger,
) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut i = 0usize;
    while samples.len() < min || start.elapsed().as_secs_f64() < seconds {
        let (b, want) = cols.block(i, nrhs);
        let open = tr.open(span, None, i as u64);
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| solver.solve(b, nrhs)));
        let wall = t0.elapsed();
        tr.close(open);
        match out {
            Ok(out) => {
                ledger.check(bit_equal(&out.x, want), || {
                    format!("{span} {i}: x differs from the sim reference")
                });
                samples.push(Sample::of(&out, wall));
            }
            Err(_) => ledger.fail(format!("{span} {i}: the solve panicked")),
        }
        i += 1;
        if samples.is_empty() && i >= min.max(1) {
            break; // every solve failed; the ledger has them
        }
    }
    samples
}

/// Median for a progress line; a round whose operations all failed has none.
fn mid(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        median(samples)
    }
}

fn column(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    samples.iter().map(f).collect()
}

fn p(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    percentile(samples, q).map_err(|e| format!("{what}: {e}; give the run more --seconds"))
}

fn run(args: &Args, ledger: &mut Ledger) -> Result<(Values, Vec<Span>), String> {
    let w = args.workload;
    let mut tr = Tracer(args.traced.then(|| Recorder::new(Instant::now())));
    let mut values = Values::default();

    let a = (w.matrix)(args.seed);
    let n = a.nrows();
    let b = workload::rhs(n, args.seed);
    let cfg = solver_config(w.layout, w.nrhs, w.backend, ExecutorKind::Tree);

    let phases = Phases::of(w.request, args.traced, args.seconds / ROUNDS as f64);

    // Set-up, repeated untimed; the last one serves the run.
    let mut setups = 0..;
    let mut ready = None;
    for rep in setups.by_ref().take(SETUP_REPS) {
        // The previous service shuts down here.
        ready = Some(setup(&a, &cfg, phases.serves(), &mut tr, rep)?);
    }
    let (solver, svc) = ready.expect("at least one set-up");
    let fact = Arc::clone(&solver.plan().fact);
    println!(
        "# workload {}: n={n} nnz={} layout={}x{}x{} backend={:?} nrhs={} request={:?} kernels.factor_bytes={} (computed) llc=\"{}\" kernels.flops={} (computed, per solve)",
        w.name,
        a.nnz(),
        cfg.px,
        cfg.py,
        cfg.pz,
        w.backend,
        w.nrhs,
        w.request,
        fact.lu.factor_bytes(),
        env::llc().unwrap_or_else(|| "unknown".into()),
        fact.lu.sym().solve_flops(w.nrhs),
    );

    let xref = reference(&a, &solver, &b, ledger)?;
    let cols = Columns {
        b: &b,
        xref: &xref,
        n,
    };
    if args.traced {
        probes(&a, &fact, &cfg, &cols, &mut tr, &mut values, ledger)?;
        sim_probe(&solver, &cfg, &cols, &mut tr, &mut values, ledger)?;
    }
    solve_loop(
        &solver,
        &cols,
        w.nrhs,
        0.0,
        3,
        &mut Tracer(None),
        "warm-up solve",
        ledger,
    );
    if let Some(svc) = &svc {
        serve::warm_up(svc, &cols, ledger);
    }

    // The timed phases, interleaved in rounds so that a slow stretch of the
    // machine touches every metric a little rather than one metric fully.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut open = serve::OpenLoop::default();
    let mut rounds = Vec::new();
    for _ in 0..ROUNDS {
        let steal_at_start = env::steal_ticks();
        let mut round = Round::default();
        if phases.direct > 0.0 {
            let direct = solve_loop(
                &solver,
                &cols,
                w.nrhs,
                phases.direct,
                ROUND_SOLVES,
                &mut Tracer(None),
                "solve",
                ledger,
            );
            round.solve_us = column(&direct, |s| s.wall_us);
            untraced.extend(direct);
        }
        if args.traced {
            traced.extend(solve_loop(
                &solver,
                &cols,
                w.nrhs,
                phases.direct,
                ROUND_SOLVES,
                &mut tr,
                "solver.solve",
                ledger,
            ));
        }
        if let Some(svc) = &svc {
            let first = open.latency_us.len();
            let o = serve::open_loop(
                svc,
                &cols,
                w.offered_hz,
                phases.open,
                first,
                tr.0.as_ref(),
                ledger,
            );
            round.completed = serve::closed_loop(svc, &cols, OUTSTANDING, phases.closed, ledger);
            round.serve_us = o.latency_us.clone();
            open.extend(o);
        }
        let budget = Instant::now();
        while budget.elapsed().as_secs_f64() < SETUP_SECONDS / ROUNDS as f64 {
            let t0 = Instant::now();
            let rep = setups.next().expect("unbounded");
            let spare = setup(&a, &cfg, phases.serves(), &mut tr, rep)?;
            round.setup_s.push(t0.elapsed().as_secs_f64());
            drop(spare); // its service shuts down here, untimed
        }
        round.steal = steal_at_start
            .zip(env::steal_ticks())
            .map(|(a, b)| b.saturating_sub(a));
        println!("{}", round.progress(rounds.len(), &phases));
        rounds.push(round);
    }
    let service = svc.map(|svc| {
        let figures = (svc.metrics(), svc.stats());
        svc.shutdown();
        figures
    });
    let kept = least_stolen(&rounds);
    let pooled = |f: fn(&Round) -> &[f64]| kept.iter().flat_map(|r| f(r)).copied().collect();
    let kept_solve_us: Vec<f64> = pooled(|r| &r.solve_us);
    let kept_serve_us: Vec<f64> = pooled(|r| &r.serve_us);
    let kept_setup_s: Vec<f64> = pooled(|r| &r.setup_s);
    let served_per_s = || {
        kept.iter().map(|r| r.completed).sum::<usize>() as f64 / (kept.len() as f64 * phases.closed)
    };

    if !args.traced {
        let (latency, rate) = match w.request {
            // Back to back, so the rate is the inverse of the mean latency.
            Request::Solve => (
                p(&kept_solve_us, 0.5, "latency_us_p50")?,
                kept_solve_us.len() as f64 / (kept_solve_us.iter().sum::<f64>() * 1e-6),
            ),
            Request::Serve => (p(&kept_serve_us, 0.5, "latency_us_p50")?, served_per_s()),
        };
        values.set("setup_s", median(&kept_setup_s));
        values.set("latency_us_p50", latency);
        values.set("requests_per_s", rate);
        values.set(
            "peak_rss_mb",
            env::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?,
        );
        return Ok((values, Vec::new()));
    }

    let (served, stats) = service.expect("a traced run serves");
    values.set("solve_us_p50", p(&kept_solve_us, 0.5, "solve_us_p50")?);
    values.set("serve.p50_us", p(&kept_serve_us, 0.5, "serve.p50_us")?);
    values.set("serve.solves_per_s", served_per_s());
    let walls = column(&untraced, |s| s.wall_us);
    values.set("solve_us_p90", p(&walls, 0.9, "solve_us_p90")?);
    values.set("serve.p90_us", p(&open.latency_us, 0.9, "serve.p90_us")?);
    let untraced_p50 = p(&walls, 0.5, "untraced solve p50")?;
    let traced_p50 = p(&column(&traced, |s| s.wall_us), 0.5, "traced solve p50")?;
    values.set("bench.trace_overhead_us", traced_p50 - untraced_p50);
    values.set(
        "bench.solve_samples",
        (untraced.len() + traced.len()) as f64,
    );
    // The simulator is not a real transport: its layout is measured on the
    // native backend instead.
    let real = if w.backend == Backend::Sim {
        let native = Solver3d::new(
            Arc::clone(&fact),
            solver_config(w.layout, w.nrhs, Backend::Native, ExecutorKind::Tree),
        );
        solve_loop(
            &native,
            &cols,
            w.nrhs,
            0.0,
            PROBE_REPS,
            &mut tr,
            "native.solve",
            ledger,
        )
    } else {
        traced
    };
    transport_metrics(&real, &mut values)?;

    let h50 = |name: &str| -> Result<f64, String> {
        let h = served
            .histogram(name)
            .ok_or_else(|| format!("service metrics lack {name}"))?;
        Ok(h.percentile(0.5) * 1e6)
    };
    values.set(
        "service.submit_us_p50",
        p(&open.submit_us, 0.5, "submit p50")?,
    );
    values.set(
        "service.queue_wait_us_p50",
        h50("service.queue_wait_seconds")?,
    );
    values.set("service.solve_us_p50", h50("service.solve_seconds")?);
    values.set("service.demux_us_p50", h50("service.demux_seconds")?);
    let width = served
        .histogram("service.batch_width")
        .ok_or("service metrics lack service.batch_width")?;
    values.set("service.batch_width_mean", width.mean());
    values.set("service.batches", stats.batches as f64);
    values.set("service.rejected", stats.rejected as f64);
    values.set("serve.p95_us", p(&open.latency_us, 0.95, "serve p95")?);
    values.set(
        "serve.gen_late_us",
        p(&open.late_us, 0.9, "generator lateness p90")?,
    );
    values.set("bench.serve_samples", open.latency_us.len() as f64);
    values.set(
        "fail_frac",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
    );
    let mut spans = tr.0.take().expect("traced run records spans").into_spans();
    spans.extend(open.spans);
    setup_metrics(&spans, &mut values)?;
    print_self_times(&spans);
    Ok((values, spans))
}

/// The floor, the P = 1 executors and the plan, each timed on its own.
fn probes(
    a: &sparse::CsrMatrix,
    fact: &Arc<Factorized>,
    cfg: &SolverConfig,
    cols: &Columns<'_>,
    tr: &mut Tracer,
    values: &mut Values,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let nrhs = cfg.nrhs;
    let n = cols.n;
    for rep in 0..3 {
        let plan = tr.span("plan.new", None, rep, || {
            Plan::new(Arc::clone(fact), cfg.px, cfg.py, cfg.pz)
        });
        tr.span("schedule.compile", None, rep, || plan.schedule(NEW3D_KEY));
    }

    // The floor: sequential solve_l + solve_u on the permuted columns.
    let perm = &fact.nd.perm;
    let mut pb = vec![0.0; n * nrhs];
    for r in 0..nrhs {
        for i in 0..n {
            pb[r * n + i] = cols.b[r * n + perm[i]];
        }
    }
    let mut work = pb.clone();
    let mut first: Option<Vec<f64>> = None;
    let mut floor_us = Vec::new();
    for rep in 0..PROBE_REPS as u64 {
        work.copy_from_slice(&pb);
        let t0 = Instant::now();
        let floor = tr.open("lufactor.floor", None, rep);
        let pid = floor.as_ref().map(Open::id);
        tr.span("lufactor.solve_l", pid, rep, || {
            fact.lu.solve_l(&mut work, nrhs)
        });
        tr.span("lufactor.solve_u", pid, rep, || {
            fact.lu.solve_u(&mut work, nrhs)
        });
        tr.close(floor);
        floor_us.push(t0.elapsed().as_secs_f64() * 1e6);
        match &first {
            None => {
                let mut x = vec![0.0; n * nrhs];
                for r in 0..nrhs {
                    for i in 0..n {
                        x[r * n + perm[i]] = work[r * n + i];
                    }
                }
                let res = sparse::rel_residual_inf(a, &x, &cols.b[..n * nrhs], nrhs);
                ledger.check(res <= MAX_RESIDUAL, || {
                    format!("floor solve: relative residual {res:e} above {MAX_RESIDUAL:e}")
                });
                first = Some(work.clone());
            }
            Some(f) => ledger.check(bit_equal(f, &work), || {
                format!("floor solve {rep}: differs from the first floor solve")
            }),
        }
    }

    // The per-rank executor alone: native 1x1x1, tree and level engines,
    // both checked against the sim reference of the 1x1x1 plan.
    let p1 = |executor: ExecutorKind| {
        Solver3d::new(
            Arc::clone(fact),
            solver_config((1, 1, 1), nrhs, Backend::Native, executor),
        )
    };
    let (tree_solver, level_solver) = (p1(ExecutorKind::Tree), p1(ExecutorKind::Level));
    let xref1 = reference(a, &tree_solver, cols.b, ledger)?;
    let cols1 = Columns {
        xref: &xref1,
        ..*cols
    };
    let tree = solve_loop(
        &tree_solver,
        &cols1,
        nrhs,
        0.0,
        PROBE_REPS,
        tr,
        "executor.p1",
        ledger,
    );
    let level = solve_loop(
        &level_solver,
        &cols1,
        nrhs,
        0.0,
        PROBE_REPS,
        tr,
        "executor.level_p1",
        ledger,
    );
    if tree.is_empty() || level.is_empty() {
        return Err("every P = 1 probe solve failed".into());
    }
    let floor_us = median(&floor_us);
    let p1_us = median(&column(&tree, |s| s.makespan_us));
    values.set("lufactor.floor_us", floor_us);
    values.set("executor.p1_us", p1_us);
    values.set("executor.p1_over_floor", p1_us / floor_us);
    values.set(
        "executor.level_p1_us",
        median(&column(&level, |s| s.makespan_us)),
    );
    values.set("executor.l_us", median(&column(&tree, |s| s.l_us)));
    values.set("executor.u_us", median(&column(&tree, |s| s.u_us)));
    let flops = fact.lu.sym().solve_flops(nrhs) as f64;
    values.set("kernels.flops", flops);
    values.set("kernels.factor_bytes", fact.lu.factor_bytes() as f64);
    values.set("kernels.gflops_p1", flops / (p1_us * 1e-6) / 1e9);
    Ok(())
}

/// Simulated solves at the workload's width on the workload's plan.
fn sim_probe(
    solver: &Solver3d,
    cfg: &SolverConfig,
    cols: &Columns<'_>,
    tr: &mut Tracer,
    values: &mut Values,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let sim = SolverConfig {
        backend: Backend::Sim,
        ..cfg.clone()
    };
    let mut walls = Vec::new();
    let mut last = None;
    for rep in 0..SIM_REPS {
        let (b, want) = cols.block(rep, cfg.nrhs);
        let t0 = Instant::now();
        let out = tr.span("simgrid.solve", None, rep as u64, || {
            catch_unwind(AssertUnwindSafe(|| {
                sptrsv::solve_planned(solver.plan(), b, &sim)
            }))
        });
        walls.push(t0.elapsed().as_secs_f64());
        match out {
            Ok(out) => {
                ledger.check(bit_equal(&out.x, want), || {
                    format!("sim solve {rep}: x differs from the reference")
                });
                last = Some(out);
            }
            Err(_) => ledger.fail(format!("sim solve {rep}: panicked")),
        }
    }
    let out = last.ok_or("every sim solve failed")?;
    values.set("simgrid.predicted_makespan_vus", out.makespan * 1e6);
    values.set(
        "simgrid.settle_waits",
        out.metrics.counter("recv.settle_waits") as f64,
    );
    values.set("simgrid.msgs", out.metrics.counter("msgs.sent") as f64);
    values.set("simgrid.wall_per_virtual", median(&walls) / out.makespan);
    Ok(())
}

fn transport_metrics(samples: &[Sample], values: &mut Values) -> Result<(), String> {
    if samples.is_empty() {
        return Err("no transport sample succeeded".into());
    }
    let med = |f: fn(&Sample) -> f64| median(&column(samples, f));
    values.set("transport.makespan_us", med(|s| s.makespan_us));
    values.set("transport.xy_msgs", med(|s| s.xy_msgs));
    values.set("transport.z_msgs", med(|s| s.z_msgs));
    values.set("transport.xy_bytes", med(|s| s.xy_bytes));
    values.set("transport.z_bytes", med(|s| s.z_bytes));
    values.set("transport.xy_wait_share", med(|s| s.xy_wait_share));
    values.set("transport.z_wait_share", med(|s| s.z_wait_share));
    values.set("allreduce.z_share", med(|s| s.z_share));
    values.set("executor.fmod_stalls", med(|s| s.fmod_stalls));
    let launch = med(|s| s.wall_us - s.makespan_us);
    values.set("launch.us", launch);
    values.set("launch.share", launch / med(|s| s.wall_us));
    Ok(())
}

/// Set-up layers from their spans' self times.
fn setup_metrics(spans: &[Span], values: &mut Values) -> Result<(), String> {
    let by_name = trace::self_times_by_name(spans);
    let self_s = |name: &str| -> Result<f64, String> {
        by_name
            .get(name)
            .map(|t| median(t))
            .ok_or_else(|| format!("no {name} span recorded"))
    };
    values.set("ordering.analyze_s", self_s("ordering.analyze")?);
    values.set("setup.permute_ms", self_s("setup.permute")? * 1e3);
    values.set("lufactor.numeric_s", self_s("lufactor.numeric")?);
    values.set("plan.new_ms", self_s("plan.new")? * 1e3);
    values.set("schedule.compile_ms", self_s("schedule.compile")? * 1e3);
    values.set("service.start_ms", self_s("service.start")? * 1e3);
    values.set("lufactor.solve_l_us", self_s("lufactor.solve_l")? * 1e6);
    values.set("lufactor.solve_u_us", self_s("lufactor.solve_u")? * 1e6);
    Ok(())
}

fn print_self_times(spans: &[Span]) {
    eprintln!("# span self times (median us, count):");
    for (name, t) in trace::self_times_by_name(spans) {
        eprintln!("#   {name:<22} {:>12.1} {:>6}", median(&t) * 1e6, t.len());
    }
}

fn write_spans(dir: &std::path::Path, args: &Args, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        args.workload.name, args.seed
    ));
    std::fs::write(&path, trace::to_json(spans))?;
    eprintln!("# spans written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(tag: f64, steal: Option<u64>) -> Round {
        Round {
            solve_us: vec![tag],
            steal,
            ..Round::default()
        }
    }

    fn tags(kept: &[&Round]) -> Vec<f64> {
        kept.iter().map(|r| r.solve_us[0]).collect()
    }

    #[test]
    fn least_stolen_keeps_the_quietest_rounds_in_order() {
        let steals = [9, 0, 4, 0, 7, 1, 30, 2, 2, 5, 0, 8, 3, 6, 11, 1];
        let rounds: Vec<Round> = steals
            .iter()
            .enumerate()
            .map(|(i, &s)| round(i as f64, Some(s)))
            .collect();
        let kept = least_stolen(&rounds);
        assert_eq!(kept.len(), KEPT_ROUNDS);
        // Steal 0, 0, 0, 1, 1, 2, 2, 3: ties keep round order.
        assert_eq!(tags(&kept), [1.0, 3.0, 10.0, 5.0, 15.0, 7.0, 8.0, 12.0]);
    }

    #[test]
    fn least_stolen_keeps_every_round_without_steal_figures() {
        let mut rounds: Vec<Round> = (0..ROUNDS).map(|i| round(i as f64, Some(0))).collect();
        rounds[3].steal = None;
        assert_eq!(least_stolen(&rounds).len(), ROUNDS);
    }

    #[test]
    fn untraced_runs_time_only_the_workload_request() {
        let solve = Phases::of(Request::Solve, false, 1.5);
        assert!(solve.direct == 1.5 && !solve.serves());
        let serve = Phases::of(Request::Serve, false, 1.5);
        assert!(serve.direct == 0.0 && serve.serves() && serve.open + serve.closed == 1.5);
        for request in [Request::Solve, Request::Serve] {
            let traced = Phases::of(request, true, 1.0);
            assert!(traced.direct > 0.0 && traced.serves() && traced.closed > 0.0);
        }
    }
}

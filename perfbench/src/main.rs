//! End-to-end and per-layer benchmark of the InfoGram service.
//!
//! ```text
//! perfbench --workload info|jobs|sessions --seed N --seconds S --trace 0|1
//! perfbench --list-metrics
//! ```
//!
//! One process runs one workload against a real `InfoGramService` with a
//! single closed-loop caller, checks every reply, and prints one JSON
//! result line last. See README.md for the workloads and metrics.

mod ops;
mod report;
mod stats;
mod storage;
mod trace;
mod world;

use ops::{expected_end, job_rsl, Ctx, InfoGen, InfoReq, JobGen};
use report::{Metrics, END_TO_END, PER_LAYER};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::{Counters, Totals};
use world::{open_log, service_config, user_dn, Net, World, ACCOUNT};

/// Set-ups per run; `setup_s` is their median and the last one serves.
/// A set-up takes milliseconds, most of it the first fsync of a fresh
/// log, whose time varies several-fold; on `jobs` it takes a third of a
/// second, most of it replaying and checkpointing the history.
fn setup_repeats(workload: Workload) -> usize {
    match workload {
        Workload::Jobs => 7,
        Workload::Info | Workload::Sessions => 41,
    }
}
/// Finished jobs in the log the `jobs` service restarts over.
const HISTORY_JOBS: u64 = 20_000;
/// History jobs per durable commit while writing the history.
const HISTORY_BATCH: u64 = 1_000;
/// After the timed loop, outside every timed window, each op type the
/// workload's own loop does not run is probed for this long. A probe
/// that ran for a fixed count instead lasted a tenth of a second on a
/// fast service, and one slow moment of the host moved its median.
/// Info ops are probed on traced runs only: no end-to-end metric needs
/// them.
const PROBE: Duration = Duration::from_secs(2);
/// Probe ops start at most once per this interval: at most 1,000 per
/// probe, so a probe leaves at most 1,000 sockets in TIME_WAIT and a
/// bounded number of jobs in memory, whatever the service's speed.
const PROBE_EVERY: Duration = Duration::from_millis(2);
/// `ops_per_s` and the latency percentiles are medians over this many
/// equal runs of consecutive ops, so one slow spell of the host moves
/// one chunk only.
const CHUNKS: usize = 10;
/// Rounds of `CommandRegistry::plan` over the Table 1 commands.
const PLAN_ROUNDS: usize = 200;
/// Scratch space inside the checkout.
const TMP_ROOT: &str = ".bench_tmp";

const USAGE: &str =
    "usage: perfbench --workload info|jobs|sessions --seed N --seconds S --trace 0|1";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Info,
    Jobs,
    Sessions,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Info => "info",
            Workload::Jobs => "jobs",
            Workload::Sessions => "sessions",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = match get("--workload")? {
        "info" => Workload::Info,
        "jobs" => Workload::Jobs,
        "sessions" => Workload::Sessions,
        other => return Err(format!("unknown workload {other}")),
    };
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} needs a whole number"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if flags.len() != 4 {
        return Err("unexpected arguments".to_string());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("history") => write_history(&argv[1..]),
        Some("--list-metrics") => {
            for (table, rows) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
                for (name, unit) in rows {
                    println!("{table} {name} {unit}");
                }
            }
            0
        }
        _ => match parse_args(&argv) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}

/// `perfbench history DIR JOBS SEED`: write a previous incarnation's log
/// of JOBS finished jobs into DIR through the public `exec::wal` API. It
/// runs in a child process so the measured process holds only the
/// workload.
fn write_history(argv: &[String]) -> i32 {
    let [dir, jobs, seed] = argv else {
        eprintln!("usage: perfbench history DIR JOBS SEED");
        return 2;
    };
    let (Ok(jobs), Ok(seed)) = (jobs.parse::<u64>(), seed.parse::<u64>()) else {
        eprintln!("history: JOBS and SEED are whole numbers");
        return 2;
    };
    use infogram::exec::wal::WalEvent;
    use infogram::sim::SimTime;
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir).expect("create the history directory");
    let wal = open_log(dir, Arc::new(Counters::default())).expect("open the history log");
    let owner = user_dn().to_string();
    let mut gen = JobGen::history(seed);
    wal.commit(SimTime::ZERO, &[WalEvent::ServiceStarted { epoch: 1 }])
        .expect("log the first start");
    let mut id = 1;
    while id <= jobs {
        let mut events = Vec::new();
        for job_id in id..(id + HISTORY_BATCH).min(jobs + 1) {
            let k = gen.next_exit();
            let (state, exit_code) = expected_end(k);
            events.push(WalEvent::Submitted {
                job_id,
                rsl: job_rsl(k),
                owner: owner.clone(),
                account: ACCOUNT.to_string(),
            });
            events.push(WalEvent::Finished {
                job_id,
                state,
                exit_code,
                wall_seconds: 0.0,
            });
        }
        wal.commit(SimTime::ZERO, &events)
            .expect("log a history batch");
        id += HISTORY_BATCH;
    }
    0
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

fn spawn_history(dir: &Path, seed: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg("history")
        .arg(dir)
        .arg(HISTORY_JOBS.to_string())
        .arg(seed.to_string())
        .status()
        .map_err(|e| format!("start the history writer: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("history writer failed: {status}"))
    }
}

fn nanos_since_epoch() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Samples gathered by one run.
#[derive(Default)]
struct Sampled {
    /// Caller-side latency of each completed op of the timed loop (ns).
    latency: Vec<f64>,
    /// When each completed op of the timed loop ended, from loop start
    /// (ns).
    done_at: Vec<f64>,
    /// Submit-to-ack of each job op (loop or probe) (ns).
    acks: Vec<f64>,
    /// Connect-to-authorization-ack of each session op (loop or probe)
    /// (ns).
    connects: Vec<f64>,
    wall: Duration,
    cpu_us: f64,
    wire_bytes: u64,
    /// Storage totals and jobs created while job ops ran.
    job_wal: Totals,
    job_count: u64,
    recovery_ms: f64,
    setups: Vec<f64>,
}

fn run(args: &Args) -> i32 {
    let scratch = Scratch(PathBuf::from(TMP_ROOT).join(format!(
        "run-{}-{}",
        std::process::id(),
        nanos_since_epoch()
    )));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("create {}: {e}", scratch.0.display());
        return 1;
    }
    let history = if args.workload == Workload::Jobs {
        let dir = scratch.0.join("history");
        if let Err(e) = spawn_history(&dir, args.seed) {
            eprintln!("{e}");
            return 1;
        }
        Some(dir)
    } else {
        None
    };

    // Set up several times; the last world serves the run.
    let tcp = args.workload != Workload::Sessions;
    let cached: Vec<String> = service_config()
        .entries
        .iter()
        .filter(|e| !e.ttl.is_zero())
        .map(|e| e.keyword.clone())
        .collect();
    let mut setups = Vec::new();
    let mut kept = None;
    let repeats = setup_repeats(args.workload);
    for rep in 0..repeats {
        let dir = scratch.0.join(format!("world-{rep}"));
        let prepared = match &history {
            Some(h) => copy_dir(h, &dir),
            None => std::fs::create_dir_all(&dir),
        };
        if let Err(e) = prepared {
            eprintln!("prepare {}: {e}", dir.display());
            return 1;
        }
        let start = Instant::now();
        let world = World::start(Net::fresh(tcp), &dir, args.seed);
        let mut caller = match world.connect() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("caller cannot connect: {e}");
                return 1;
            }
        };
        let warm: Vec<_> = cached
            .iter()
            .map(|k| {
                let req = InfoReq::single(k);
                let res = caller.query_rsl(&req.text);
                (req, res)
            })
            .collect();
        setups.push(start.elapsed().as_secs_f64());
        if rep + 1 < repeats {
            drop(caller);
            world.service.shutdown();
        } else {
            kept = Some((world, caller, warm));
        }
    }
    let Some((world, mut caller, warm)) = kept else {
        return 1;
    };

    let mut ctx = Ctx::new(&world, args.trace, args.seed);
    ctx.sessions = 1;
    for (req, res) in &warm {
        ctx.warmed(req, res);
    }
    world.wal.set_sampling(args.trace);
    let mut s = Sampled {
        setups,
        ..Sampled::default()
    };

    timed_loop(args, &mut ctx, &mut caller, &mut s);
    probes(args, &mut ctx, &mut caller, &mut s);
    if args.trace {
        plan_providers(&mut ctx);
    }
    drop(caller);
    final_checks(args, &mut ctx, history.is_some(), &mut s);

    println!(
        "host {}",
        report::host_facts(world.net.name(), &world.wal_dir)
    );
    if args.trace {
        let path = Path::new(TMP_ROOT).join(format!("trace-{}.tsv", args.workload.name()));
        if let Err(e) = ctx.tracer.write_tsv(&path) {
            eprintln!("write {}: {e}", path.display());
        }
        println!("traced-e2e {}", end_to_end(&s).to_json());
    }
    println!("detail {}", detail(&s));
    let metrics = if args.trace {
        per_layer(&ctx, &s)
    } else {
        end_to_end(&s)
    };
    let missing = metrics.missing();
    let correct = ctx.ledger.broken_count == 0 && missing.is_empty();
    for msg in &ctx.ledger.broken {
        eprintln!("check: {msg}");
    }
    if !missing.is_empty() {
        eprintln!("no value for {missing:?}");
    }
    println!(
        "{}",
        report::result_line(correct, ctx.ledger.attempted, ctx.ledger.failed, &metrics)
    );
    if correct {
        0
    } else {
        1
    }
}

/// The workload's own ops, closed loop, for `--seconds`.
fn timed_loop(
    args: &Args,
    ctx: &mut Ctx<'_>,
    caller: &mut infogram::client::InfoGramClient,
    s: &mut Sampled,
) {
    let world = ctx.world;
    let deadline = Duration::from_secs(args.seconds);
    let cpu0 = report::process_cpu_us();
    let bytes0 = world.net.bytes();
    let wal0 = world.wal.snapshot();
    let jobs0 = ctx.jobs.len();
    let start = Instant::now();
    match args.workload {
        Workload::Info => {
            let mut gen = InfoGen::new(args.seed);
            while start.elapsed() < deadline {
                if let Some(ns) = ctx.info_op(caller, &gen.next_req()) {
                    s.latency.push(ns);
                    s.done_at.push(start.elapsed().as_nanos() as f64);
                }
            }
        }
        Workload::Jobs => {
            let mut gen = JobGen::new(args.seed);
            while start.elapsed() < deadline {
                if let Some((ack, total)) = ctx.job_op(caller, gen.next_exit()) {
                    s.acks.push(ack);
                    s.latency.push(total);
                    s.done_at.push(start.elapsed().as_nanos() as f64);
                }
            }
        }
        Workload::Sessions => {
            while start.elapsed() < deadline {
                if let Some((connect, total)) = ctx.session_op() {
                    s.connects.push(connect);
                    s.latency.push(total);
                    s.done_at.push(start.elapsed().as_nanos() as f64);
                }
            }
        }
    }
    s.wall = start.elapsed();
    s.cpu_us = report::process_cpu_us() - cpu0;
    s.wire_bytes = world.net.bytes() - bytes0;
    if args.workload == Workload::Jobs {
        s.job_wal = world.wal.snapshot().since(&wal0);
        s.job_count = (ctx.jobs.len() - jobs0) as u64;
    }
}

/// Probes of the op types the timed loop did not run, so that every
/// metric is measured on every workload.
fn probes(
    args: &Args,
    ctx: &mut Ctx<'_>,
    caller: &mut infogram::client::InfoGramClient,
    s: &mut Sampled,
) {
    let world = ctx.world;
    let probe_seed = args.seed ^ 0x9_0be;
    if args.trace && args.workload != Workload::Info {
        // Every request shape first, then the mix.
        let reqs = [
            InfoReq {
                text: "(info=all)".to_string(),
                shape: ops::Shape::All,
            },
            InfoReq::single("CPULoad"),
            InfoReq {
                text: "(info=Memory)(format=xml)".to_string(),
                shape: ops::Shape::Single {
                    keyword: "Memory".to_string(),
                    xml: true,
                },
            },
        ];
        for req in &reqs {
            ctx.info_op(caller, req);
        }
        let mut gen = InfoGen::new(probe_seed);
        let start = Instant::now();
        while start.elapsed() < PROBE {
            ctx.info_op(caller, &gen.next_req());
        }
    }
    if args.workload != Workload::Jobs {
        let wal0 = world.wal.snapshot();
        let jobs0 = ctx.jobs.len();
        let mut gen = JobGen::new(probe_seed);
        let start = Instant::now();
        let mut next = start;
        while start.elapsed() < PROBE {
            next += PROBE_EVERY;
            if let Some((ack, _)) = ctx.job_op(caller, gen.next_exit()) {
                s.acks.push(ack);
            }
            pause_until(next);
        }
        s.job_wal = world.wal.snapshot().since(&wal0);
        s.job_count = (ctx.jobs.len() - jobs0) as u64;
    }
    if args.workload != Workload::Sessions {
        let start = Instant::now();
        let mut next = start;
        while start.elapsed() < PROBE {
            next += PROBE_EVERY;
            // One session at a time: the next opens once the service has
            // torn the previous one down (only the caller's stays open).
            let settled_by = Instant::now() + Duration::from_secs(1);
            while world.telemetry().gauge_value("gram.connections.active") > 1.0
                && Instant::now() < settled_by
            {
                std::thread::yield_now();
            }
            if let Some((connect, _)) = ctx.session_op() {
                s.connects.push(connect);
            }
            pause_until(next);
        }
    }
}

fn pause_until(at: Instant) {
    if let Some(rest) = at.checked_duration_since(Instant::now()) {
        std::thread::sleep(rest);
    }
}

/// `CommandRegistry::plan` once per Table 1 command, for several rounds.
fn plan_providers(ctx: &mut Ctx<'_>) {
    let registry = ctx.world.service.registry();
    let commands: Vec<String> = service_config()
        .entries
        .iter()
        .map(|e| e.command.clone())
        .collect();
    for _ in 0..PLAN_ROUNDS {
        for cmd in &commands {
            let out = ctx
                .tracer
                .time("host.provider_run_ns", trace::ROOT, || registry.plan(cmd));
            ctx.ledger.check(
                matches!(&out, Ok(o) if o.exit_code == 0 && !o.stdout.is_empty()),
                || format!("plan {cmd}: {out:?}"),
            );
        }
    }
}

/// Service-side checks after the run, then reopen the log from disk and
/// check every job in it.
fn final_checks(args: &Args, ctx: &mut Ctx<'_>, with_history: bool, s: &mut Sampled) {
    let world = ctx.world;
    let t = world.telemetry();
    let info = world.service.info_service();

    // Every session the benchmark opened was served, and all are closed.
    let closed_by = Instant::now() + Duration::from_secs(10);
    while t.gauge_value("gram.connections.active") != 0.0 && Instant::now() < closed_by {
        std::thread::sleep(Duration::from_millis(2));
    }
    let active = t.gauge_value("gram.connections.active");
    ctx.ledger.check(active == 0.0, || {
        format!("{active} connections still active")
    });
    let served = t.counter_value("gram.connections");
    let opened = ctx.sessions;
    ctx.ledger.check(served == opened, || {
        format!("service counted {served} connections, benchmark opened {opened}")
    });

    // Cache: one provider run per cached keyword; the TTL-0 provider ran
    // once per request that named it.
    for e in &service_config().entries {
        if e.ttl.is_zero() {
            let runs = info.lookup(&e.keyword).map_or(0, |si| si.execution_count());
            let sent = ctx.book.ttl0_requests;
            ctx.ledger.check(runs == sent, || {
                format!(
                    "{} provider ran {runs} times for {sent} requests",
                    e.keyword
                )
            });
        } else {
            let misses = t.counter_value(&format!("info.misses.{}", e.keyword));
            ctx.ledger.check(misses == 1, || {
                format!("{} missed {misses} times, expected once", e.keyword)
            });
        }
    }
    world.service.shutdown();

    // Reopen the log from disk: it must hold the history plus every job
    // the benchmark created, each ended as the benchmark chose.
    let start = Instant::now();
    let reopened = open_log(&world.wal_dir, Arc::new(Counters::default()));
    s.recovery_ms = start.elapsed().as_secs_f64() * 1e3;
    let wal = match reopened {
        Ok(w) => w,
        Err(e) => {
            ctx.ledger.check(false, || format!("reopen log: {e}"));
            return;
        }
    };
    let mut want: HashMap<u64, u64> = ctx.jobs.iter().copied().collect();
    if with_history {
        let mut gen = JobGen::history(args.seed);
        want.extend((1..=HISTORY_JOBS).map(|id| (id, gen.next_exit())));
    }
    let recovered = wal.fold_snapshot().state;
    ctx.ledger.check(recovered.jobs.len() == want.len(), || {
        format!(
            "log holds {} jobs, expected {}",
            recovered.jobs.len(),
            want.len()
        )
    });
    let mut wrong = 0u64;
    for job in &recovered.jobs {
        let ok = want
            .get(&job.job_id)
            .is_some_and(|k| job.finished == Some(expected_end(*k)));
        wrong += u64::from(!ok);
    }
    ctx.ledger.check(wrong == 0, || {
        format!("{wrong} logged jobs ended otherwise than chosen")
    });
    let accounts = infogram::exec::wal::accounting_summary(&wal.events());
    let usage = accounts.get(ACCOUNT).cloned().unwrap_or_default();
    let zeros = want.values().filter(|k| **k == 0).count() as u64;
    let expect = (
        want.len() as u64,
        zeros,
        want.len() as u64 - zeros,
        ctx.book.dispatched,
    );
    let got = (
        usage.submitted,
        usage.completed,
        usage.failed,
        usage.info_queries,
    );
    ctx.ledger.check(got == expect, || {
        format!("accounting (submitted, completed, failed, queries) = {got:?}, expected {expect:?}")
    });
}

fn p(sorted: &[f64], q: f64) -> f64 {
    stats::nearest_rank(sorted, q).unwrap_or(f64::NAN)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    stats::sort(&mut v);
    v
}

fn end_to_end(s: &Sampled) -> Metrics {
    let mut m = Metrics::new(END_TO_END);
    let ops = s.latency.len() as f64;
    let chunked = |q| stats::chunked_quantile(&s.latency, CHUNKS, q).unwrap_or(f64::NAN);
    m.set("setup_s", stats::median(&s.setups).unwrap_or(f64::NAN));
    m.set(
        "ops_per_s",
        stats::chunked_rate(&s.done_at, CHUNKS).unwrap_or(f64::NAN),
    );
    m.set("latency_p50_us", chunked(0.5) / 1e3);
    m.set("latency_p90_us", chunked(0.9) / 1e3);
    m.set("cpu_us_per_op", s.cpu_us / ops);
    m.set("wire_bytes_per_op", s.wire_bytes as f64 / ops);
    m.set("peak_rss_mb", report::peak_rss_mb());
    m.set("submit_ack_p50_us", p(&sorted(&s.acks), 0.5) / 1e3);
    m.set("connect_p50_us", p(&sorted(&s.connects), 0.5) / 1e3);
    m
}

/// Tails and sample counts, for the README.
fn detail(s: &Sampled) -> String {
    let lat = sorted(&s.latency);
    let acks = sorted(&s.acks);
    let connects = sorted(&s.connects);
    format!(
        "{{\"latency_samples\": {}, \"latency_p99_us\": {}, \"submit_ack_samples\": {}, \
         \"submit_ack_p99_us\": {}, \"connect_samples\": {}, \"connect_p99_us\": {}, \
         \"setup_samples\": {}, \"cpu_us\": {}, \"wall_s\": {}}}",
        lat.len(),
        report::num(p(&lat, 0.99) / 1e3),
        acks.len(),
        report::num(p(&acks, 0.99) / 1e3),
        connects.len(),
        report::num(p(&connects, 0.99) / 1e3),
        s.setups.len(),
        report::num(s.cpu_us),
        report::num(s.wall.as_secs_f64()),
    )
}

fn per_layer(ctx: &Ctx<'_>, s: &Sampled) -> Metrics {
    let mut m = Metrics::new(PER_LAYER);
    let t = &ctx.tracer;
    let med = |name: &str| stats::median(&t.durations_ns(name)).unwrap_or(f64::NAN);
    for (name, unit) in PER_LAYER {
        let scale = match *unit {
            "ns" => 1.0,
            "us" => 1e3,
            "ms" => 1e6,
            _ => continue,
        };
        if t.spans().iter().any(|sp| sp.name == *name) {
            m.set(name, med(name) / scale);
        }
    }
    m.set(
        "core.dispatch_self_ns",
        stats::median(&ctx.dispatch_self_ns).unwrap_or(f64::NAN),
    );
    let gsi: f64 = [
        "gsi.client_hello_us",
        "gsi.server_respond_us",
        "gsi.client_finish_us",
        "gsi.server_verify_us",
        "gsi.authorize_us",
    ]
    .iter()
    .map(|n| med(n))
    .sum();
    let connect = p(&sorted(&s.connects), 0.5);
    m.set(
        "core.conn_setup_self_us",
        (connect - gsi - 3.0 * med("proto.ping_rtt_us")) / 1e3,
    );
    let b = &ctx.book;
    m.set(
        "info.hit_ratio",
        b.traced_hits as f64 / b.traced_lookups as f64,
    );
    m.set("info.lookups", b.traced_lookups as f64);
    m.set(
        "info.provider_runs_per_op",
        b.traced_provider_runs as f64 / b.traced_ops as f64,
    );
    let w = &s.job_wal;
    let jobs = s.job_count as f64;
    m.set("exec.wal_bytes_per_job", w.bytes as f64 / jobs);
    m.set("exec.wal_syncs_per_job", w.syncs as f64 / jobs);
    m.set("exec.checkpoints_per_job", w.checkpoints as f64 / jobs);
    m.set(
        "exec.checkpoint_byte_share",
        w.checkpoint_bytes as f64 / w.bytes as f64,
    );
    m.set("exec.wal_bytes_appended", w.bytes as f64);
    let per_call_us = |v: Vec<u64>| {
        let v: Vec<f64> = v.into_iter().map(|ns| ns as f64).collect();
        stats::median(&v).unwrap_or(f64::NAN) / 1e3
    };
    m.set(
        "exec.storage_append_us",
        per_call_us(ctx.world.wal.append_ns()),
    );
    m.set("exec.storage_sync_us", per_call_us(ctx.world.wal.sync_ns()));
    m.set("exec.recovery_ms", s.recovery_ms);
    m
}

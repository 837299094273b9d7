//! The three operation types, the checks on their replies, and (when
//! tracing) the benchmark's own timed calls into each layer on the same
//! inputs.

use crate::trace::{Tracer, ROOT};
use crate::world::{service_config, World, ACCOUNT, SERVICE_NAME};
use infogram::client::{InfoGramClient, QueryResult};
use infogram::core::InfoGramDispatcher;
use infogram::exec::gram::{ConnCtx, RequestDispatcher};
use infogram::gsi::{
    wire_client_finish, wire_client_hello, wire_server_respond, wire_server_verify,
};
use infogram::info::service::QueryOptions;
use infogram::proto::message::{JobStateCode, Reply, Request};
use infogram::proto::render::{self, ldif, xml};
use infogram::proto::{InfoRecord, JobHandle};
use infogram::rsl::{OutputFormat, XrslRequest};
use infogram::sim::SplitMix64;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// How often (in ops) a traced info op also pings its connection.
const PING_EVERY_INFO_OPS: u64 = 8;

/// What an info request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// One keyword, LDIF or XML.
    Single {
        /// Configured keyword name.
        keyword: String,
        /// `(format=xml)`.
        xml: bool,
    },
    /// `(info=all)`.
    All,
}

/// One generated info request.
#[derive(Debug, Clone)]
pub struct InfoReq {
    /// The xRSL text sent.
    pub text: String,
    /// What it asks for.
    pub shape: Shape,
}

impl InfoReq {
    /// A single-keyword LDIF request.
    pub fn single(keyword: &str) -> InfoReq {
        InfoReq {
            text: format!("(info={keyword})"),
            shape: Shape::Single {
                keyword: keyword.to_string(),
                xml: false,
            },
        }
    }
}

/// The `info` mix: 78% single-keyword LDIF, 20% single-keyword XML, 2%
/// `(info=all)`, keywords uniform over Table 1.
pub struct InfoGen {
    rng: SplitMix64,
    keywords: Vec<String>,
}

impl InfoGen {
    /// A generator seeded from the run seed.
    pub fn new(seed: u64) -> InfoGen {
        InfoGen {
            rng: SplitMix64::new(seed ^ 0x1f0_1f0),
            keywords: service_config()
                .entries
                .iter()
                .map(|e| e.keyword.clone())
                .collect(),
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> InfoReq {
        let roll = self.rng.below(100);
        let keyword = self.keywords[self.rng.below(self.keywords.len() as u64) as usize].clone();
        if roll < 2 {
            InfoReq {
                text: "(info=all)".to_string(),
                shape: Shape::All,
            }
        } else if roll < 22 {
            InfoReq {
                text: format!("(info={keyword})(format=xml)"),
                shape: Shape::Single { keyword, xml: true },
            }
        } else {
            InfoReq::single(&keyword)
        }
    }
}

/// The `jobs` mix: exit codes uniform in 0..=3.
pub struct JobGen {
    rng: SplitMix64,
}

impl JobGen {
    /// A generator for the timed jobs of a run.
    pub fn new(seed: u64) -> JobGen {
        JobGen {
            rng: SplitMix64::new(seed ^ 0x70b5),
        }
    }

    /// A generator for the history a run starts from.
    pub fn history(seed: u64) -> JobGen {
        JobGen {
            rng: SplitMix64::new(seed ^ 0x4157_0e12),
        }
    }

    /// The next exit code.
    pub fn next_exit(&mut self) -> u64 {
        self.rng.below(4)
    }
}

/// The xRSL of a job exiting with `k`.
pub fn job_rsl(k: u64) -> String {
    format!("(executable=simwork)(arguments=0 {k})")
}

/// The terminal state a job exiting with `k` must reach.
pub fn expected_end(k: u64) -> (JobStateCode, Option<i32>) {
    let state = if k == 0 {
        JobStateCode::Done
    } else {
        JobStateCode::Failed
    };
    (state, Some(k as i32))
}

/// Check failures and operation outcomes.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose request itself failed.
    pub failed: u64,
    /// Output checks that did not hold (first few kept verbatim).
    pub broken: Vec<String>,
    /// Total output checks that did not hold.
    pub broken_count: u64,
}

impl Ledger {
    /// Record a check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken_count += 1;
            if self.broken.len() < 20 {
                self.broken.push(what());
            }
        }
    }

    /// Record an operation that failed outright.
    pub fn fail_op(&mut self, what: String) {
        self.failed += 1;
        if self.broken.len() < 20 {
            self.broken.push(what);
        }
    }
}

/// A record as the checks compare it: attribute names, values and
/// quality. The age annotation grows with wall time by design, so it is
/// the one part of a cached reply that may differ between replies.
type Normal = (String, String, Vec<(String, String, String)>);

fn normal(rec: &InfoRecord) -> Normal {
    (
        rec.keyword.clone(),
        rec.host.clone(),
        rec.attributes
            .iter()
            .map(|a| {
                (
                    a.name.clone(),
                    a.value.clone(),
                    a.quality.map(|q| format!("{q:.4}")).unwrap_or_default(),
                )
            })
            .collect(),
    )
}

/// What the info checks remember across a run.
#[derive(Debug, Default)]
pub struct InfoBook {
    /// First reply per cached keyword.
    first: HashMap<String, Normal>,
    /// Attribute names of the first reply per TTL-0 keyword, whose
    /// values change on every run of its provider.
    first_names: HashMap<String, Vec<String>>,
    /// Requests that ran the TTL-0 provider (wire and traced calls).
    pub ttl0_requests: u64,
    /// Info queries that reached the service's dispatcher (each leaves
    /// one query-log record).
    pub dispatched: u64,
    /// Service-side lookups, hits and provider runs caused by the wire
    /// requests of traced ops.
    pub traced_lookups: u64,
    /// See `traced_lookups`.
    pub traced_hits: u64,
    /// See `traced_lookups`.
    pub traced_provider_runs: u64,
    /// Ops whose wire deltas are in the `traced_*` fields.
    pub traced_ops: u64,
}

/// Per-run state the operations share.
pub struct Ctx<'w> {
    /// The service under test.
    pub world: &'w World,
    /// Span recorder (disabled on untraced runs).
    pub tracer: Tracer,
    /// A dispatcher over the service's own engine and info service, for
    /// the traced dispatch calls.
    disp: Option<Arc<InfoGramDispatcher>>,
    /// Checks and op outcomes.
    pub ledger: Ledger,
    /// Info check state.
    pub book: InfoBook,
    /// Every job the benchmark created, with its exit code.
    pub jobs: Vec<(u64, u64)>,
    /// Sessions opened to the service (the caller's included).
    pub sessions: u64,
    /// `core.dispatch_info_ns` minus parse, answer, render and encode,
    /// per traced info request.
    pub dispatch_self_ns: Vec<f64>,
    /// Configured keywords with TTL 0 (always executed).
    ttl0: Vec<String>,
    owner: String,
    rng: SplitMix64,
    info_ops: u64,
}

impl<'w> Ctx<'w> {
    /// State for one run against `world`.
    pub fn new(world: &'w World, trace: bool, seed: u64) -> Ctx<'w> {
        let disp = trace.then(|| {
            InfoGramDispatcher::new(
                Arc::clone(world.service.engine()),
                Arc::clone(world.service.info_service()),
            )
        });
        Ctx {
            world,
            tracer: Tracer::new(trace),
            disp,
            ledger: Ledger::default(),
            book: InfoBook::default(),
            jobs: Vec::new(),
            sessions: 0,
            dispatch_self_ns: Vec::new(),
            ttl0: service_config()
                .entries
                .iter()
                .filter(|e| e.ttl.is_zero())
                .map(|e| e.keyword.clone())
                .collect(),
            owner: crate::world::user_dn().to_string(),
            rng: SplitMix64::new(seed ^ 0x6751),
            info_ops: 0,
        }
    }

    fn touches_ttl0(&self, shape: &Shape) -> bool {
        match shape {
            Shape::All => !self.ttl0.is_empty(),
            Shape::Single { keyword, .. } => self.ttl0.contains(keyword),
        }
    }

    /// Check one info reply against the request and the replies before
    /// it.
    pub fn check_info(&mut self, req: &InfoReq, reply: &QueryResult) {
        let ledger = &mut self.ledger;
        let host = &self.world.host;
        ledger.check(reply.records.len() == reply.record_count as usize, || {
            format!(
                "{}: {} records parsed, {} reported",
                req.text,
                reply.records.len(),
                reply.record_count
            )
        });
        let cpus = f64::from(host.cpus);
        for rec in &reply.records {
            ledger.check(rec.host == host.hostname && !rec.degraded, || {
                format!(
                    "{}: record {} from {} degraded={}",
                    req.text, rec.keyword, rec.host, rec.degraded
                )
            });
            if self.ttl0.contains(&rec.keyword) {
                // The load model clamps at twice the CPU count.
                let load = rec
                    .get(&format!("{}:load", rec.keyword))
                    .and_then(|a| a.value.parse::<f64>().ok());
                ledger.check(
                    matches!(load, Some(l) if (0.0..=2.0 * cpus).contains(&l)),
                    || format!("{}: load {load:?} outside [0, {}]", req.text, 2.0 * cpus),
                );
                let names: Vec<String> = rec.attributes.iter().map(|a| a.name.clone()).collect();
                match self.book.first_names.get(&rec.keyword) {
                    Some(first) => ledger.check(first == &names, || {
                        format!(
                            "{}: {} attributes {names:?}, first reply had {first:?}",
                            req.text, rec.keyword
                        )
                    }),
                    None => {
                        self.book.first_names.insert(rec.keyword.clone(), names);
                    }
                }
                continue;
            }
            if rec.keyword == "Metrics" {
                continue;
            }
            let n = normal(rec);
            match self.book.first.get(&rec.keyword) {
                Some(first) => ledger.check(first == &n, || {
                    format!(
                        "{}: cached {} differs from its first reply",
                        req.text, rec.keyword
                    )
                }),
                None => {
                    check_host_values(ledger, rec, host);
                    self.book.first.insert(rec.keyword.clone(), n);
                }
            }
        }
        match &req.shape {
            Shape::Single { keyword, .. } => {
                ledger.check(
                    reply.records.len() == 1 && reply.records[0].keyword == *keyword,
                    || format!("{}: expected one {keyword} record", req.text),
                );
            }
            Shape::All => {
                let mut got: Vec<&str> = reply.records.iter().map(|r| r.keyword.as_str()).collect();
                got.sort_unstable();
                let mut want: Vec<String> = service_config()
                    .entries
                    .iter()
                    .map(|e| e.keyword.clone())
                    .chain(std::iter::once("Metrics".to_string()))
                    .collect();
                want.sort_unstable();
                ledger.check(got == want, || {
                    format!("(info=all): keywords {got:?}, expected {want:?}")
                });
            }
        }
    }

    /// Send one info request over `client`, check the reply, and (when
    /// tracing) time each layer on the same request. Returns the
    /// caller-side latency in ns.
    pub fn info_op(&mut self, client: &mut InfoGramClient, req: &InfoReq) -> Option<f64> {
        self.ledger.attempted += 1;
        self.info_ops += 1;
        let op = if self.tracer.enabled() {
            self.tracer.open("op.info", ROOT)
        } else {
            ROOT
        };
        let before = self.tracer.enabled().then(|| self.service_counts());
        let start = Instant::now();
        let res = client.query_rsl(&req.text);
        let latency = start.elapsed().as_nanos() as f64;
        self.count_wire(&req.shape);
        if let Some(before) = before {
            self.add_traced_deltas(before);
        }
        let reply = match res {
            Ok(r) => r,
            Err(e) => {
                self.ledger.fail_op(format!("{}: {e}", req.text));
                return None;
            }
        };
        self.check_info(req, &reply);
        if self.tracer.enabled() {
            self.trace_info_layers(req, op);
            if self.info_ops.is_multiple_of(PING_EVERY_INFO_OPS) {
                self.trace_ping(client, op);
            }
            self.tracer.close(op);
        }
        Some(latency)
    }

    fn count_wire(&mut self, shape: &Shape) {
        self.book.dispatched += 1;
        if self.touches_ttl0(shape) {
            self.book.ttl0_requests += 1;
        }
    }

    /// (lookups, hits, provider runs) from the service's own telemetry.
    fn service_counts(&self) -> (u64, u64, u64) {
        let info = self.world.service.info_service();
        let t = info.metrics();
        let runs = info.entries().iter().map(|e| e.execution_count()).sum();
        (
            t.counter_value("info.queries"),
            t.counter_value("info.cache_hits"),
            runs,
        )
    }

    fn add_traced_deltas(&mut self, before: (u64, u64, u64)) {
        let after = self.service_counts();
        self.book.traced_lookups += after.0 - before.0;
        self.book.traced_hits += after.1 - before.1;
        self.book.traced_provider_runs += after.2 - before.2;
        self.book.traced_ops += 1;
    }

    fn trace_ping(&mut self, client: &mut InfoGramClient, op: u32) {
        let res = self
            .tracer
            .time("proto.ping_rtt_us", op, || client.gram().ping());
        self.ledger
            .check(res.is_ok(), || format!("ping failed: {res:?}"));
    }

    /// The traced calls for one info request: decode, parse, dispatch,
    /// answer, render, encode and client-side parse, each on the
    /// request's own text.
    fn trace_info_layers(&mut self, req: &InfoReq, op: u32) {
        let world = self.world;
        let Some(disp) = self.disp.clone() else {
            return;
        };
        let t = &mut self.tracer;
        let request = Request::Submit {
            rsl: req.text.clone(),
            callback: false,
        };
        let request_bytes = request.encode();
        let decoded = t.time("proto.request_decode_ns", op, || {
            Request::decode(&request_bytes)
        });
        self.ledger.check(decoded.as_ref() == Ok(&request), || {
            format!("{}: request does not decode to itself", req.text)
        });

        let parsed = t.time("rsl.parse_info_ns", op, || {
            XrslRequest::parse_all(&req.text)
        });
        let parse_ns = t.last_ns();
        let Some(x) = parsed.ok().and_then(|mut v| v.pop()) else {
            self.ledger
                .check(false, || format!("{}: does not parse", req.text));
            return;
        };

        let owner = self.owner.clone();
        let dispatched = t.time("core.dispatch_info_ns", op, || {
            disp.dispatch(&owner, ACCOUNT, request.clone(), &mut ConnCtx::detached())
        });
        let dispatch_ns = t.last_ns();

        let opts = QueryOptions {
            mode: x.response,
            quality_threshold: x.quality,
            filter: x.filter.clone(),
            performance: x.performance,
            deadline: x.timeout,
        };
        let answer_name = match &req.shape {
            Shape::All => "info.answer_all_ns",
            Shape::Single { keyword, .. } if self.ttl0.contains(keyword) => "info.answer_miss_ns",
            Shape::Single { .. } => "info.answer_hit_ns",
        };
        let info = world.service.info_service();
        let answered = t.time(answer_name, op, || info.answer(&x.info, &opts));
        let answer_ns = t.last_ns();
        let Ok(records) = answered else {
            self.ledger.check(false, || {
                format!("{}: answer failed: {answered:?}", req.text)
            });
            return;
        };

        let render_name = match &req.shape {
            Shape::All => "proto.render_all_ns",
            Shape::Single { xml: true, .. } => "proto.render_xml_ns",
            Shape::Single { xml: false, .. } => "proto.render_ldif_ns",
        };
        let body = t.time(render_name, op, || render::render(&records, x.format));
        let render_ns = t.last_ns();
        let reply = Reply::InfoResult {
            body,
            record_count: records.len() as u32,
        };
        let reply_bytes = t.time("proto.reply_encode_ns", op, || reply.encode());
        let encode_ns = t.last_ns();
        let format = x.format;
        let reparsed = t.time("client.reply_parse_ns", op, || {
            match Reply::decode(&reply_bytes) {
                Ok(Reply::InfoResult { body, .. }) => match format {
                    OutputFormat::Xml => xml::parse(&body),
                    _ => ldif::parse(&body),
                },
                _ => Vec::new(),
            }
        });

        self.dispatch_self_ns
            .push(dispatch_ns - parse_ns - answer_ns - render_ns - encode_ns);
        // The dispatch and the direct answer each ran the TTL-0 provider
        // again; the dispatch also logged the query.
        self.book.dispatched += 1;
        if self.touches_ttl0(&req.shape) {
            self.book.ttl0_requests += 2;
        }
        let count_ok = matches!(&dispatched, Reply::InfoResult { record_count, .. }
            if *record_count as usize == records.len());
        self.ledger
            .check(count_ok && reparsed.len() == records.len(), || {
                format!("{}: traced dispatch/parse disagree with answer", req.text)
            });
    }

    /// Submit one job over `client` and poll its status, without
    /// sleeping, until it ends. Returns (submit-to-ack, submit-to-end)
    /// in ns.
    pub fn job_op(&mut self, client: &mut InfoGramClient, k: u64) -> Option<(f64, f64)> {
        self.ledger.attempted += 1;
        let rsl = job_rsl(k);
        let op = if self.tracer.enabled() {
            self.tracer.open("op.job", ROOT)
        } else {
            ROOT
        };
        let start = Instant::now();
        let handle = match client.submit(&rsl, false) {
            Ok(h) => h,
            Err(e) => {
                self.ledger.fail_op(format!("submit {rsl}: {e}"));
                return None;
            }
        };
        let ack = start.elapsed().as_nanos() as f64;
        let end = loop {
            match client.status(&handle) {
                Ok((state, exit, _)) if state.is_terminal() => break (state, exit),
                Ok(_) => {}
                Err(e) => {
                    self.ledger.fail_op(format!("status of {rsl}: {e}"));
                    return None;
                }
            }
        };
        let total = start.elapsed().as_nanos() as f64;
        self.jobs.push((handle.job_id, k));
        self.ledger.check(end == expected_end(k), || {
            format!("{rsl}: ended {end:?}, expected {:?}", expected_end(k))
        });
        if self.tracer.enabled() {
            self.trace_job_layers(&rsl, k, &handle, end, op);
            self.trace_ping(client, op);
            self.tracer.close(op);
        }
        Some((ack, total))
    }

    /// The traced calls for one job: decode and parse its request,
    /// dispatch a submit and status polls, submit and poll through the
    /// engine directly, and encode/decode the replies. The dispatch and
    /// the direct submit each create one more job.
    fn trace_job_layers(
        &mut self,
        rsl: &str,
        k: u64,
        handle: &JobHandle,
        end: (JobStateCode, Option<i32>),
        op: u32,
    ) {
        let world = self.world;
        let Some(disp) = self.disp.clone() else {
            return;
        };
        let owner = self.owner.clone();
        let t = &mut self.tracer;
        let request = Request::Submit {
            rsl: rsl.to_string(),
            callback: false,
        };
        let bytes = request.encode();
        let decoded = t.time("proto.request_decode_ns", op, || Request::decode(&bytes));
        let parsed = t.time("rsl.parse_job_ns", op, || XrslRequest::parse_all(rsl));
        let Some(spec) = parsed.ok().and_then(|mut v| v.pop()).and_then(|x| x.job) else {
            self.ledger
                .check(false, || format!("{rsl}: no job in parse"));
            return;
        };
        self.ledger.check(decoded.as_ref() == Ok(&request), || {
            format!("{rsl}: decode")
        });

        // Through the dispatcher.
        let reply = t.time("core.dispatch_submit_ns", op, || {
            disp.dispatch(&owner, ACCOUNT, request.clone(), &mut ConnCtx::detached())
        });
        let Reply::JobAccepted { handle: h2 } = reply else {
            self.ledger
                .check(false, || format!("{rsl}: dispatch submit gave {reply:?}"));
            return;
        };
        let end2 = loop {
            let status = Request::Status { handle: h2.clone() };
            match t.time("core.dispatch_status_ns", op, || {
                disp.dispatch(&owner, ACCOUNT, status, &mut ConnCtx::detached())
            }) {
                Reply::JobStatus {
                    state, exit_code, ..
                } if state.is_terminal() => break (state, exit_code),
                Reply::JobStatus { .. } => {}
                other => {
                    self.ledger
                        .check(false, || format!("{rsl}: dispatch status gave {other:?}"));
                    return;
                }
            }
        };
        self.jobs.push((h2.job_id, k));

        // Straight into the engine.
        let engine = world.service.engine();
        let submitted = t.time("exec.submit_us", op, || {
            engine.submit(rsl, spec.clone(), &owner, ACCOUNT)
        });
        let Ok(h3) = submitted else {
            self.ledger
                .check(false, || format!("{rsl}: engine submit failed"));
            return;
        };
        let end3 = loop {
            match t.time("exec.status_us", op, || engine.status(h3.job_id)) {
                Some(v) if v.state.is_terminal() => break (v.state, v.exit_code),
                Some(_) => {}
                None => {
                    self.ledger
                        .check(false, || format!("{rsl}: engine lost job {}", h3.job_id));
                    return;
                }
            }
        };
        self.jobs.push((h3.job_id, k));

        let accepted = Reply::JobAccepted {
            handle: handle.clone(),
        };
        let _ = t.time("proto.reply_encode_ns", op, || accepted.encode());
        let status_bytes = Reply::JobStatus {
            handle: handle.clone(),
            state: end.0,
            exit_code: end.1,
            output: String::new(),
        }
        .encode();
        let redecoded = t.time("client.reply_parse_ns", op, || Reply::decode(&status_bytes));
        let want = expected_end(k);
        self.ledger
            .check(end2 == want && end3 == want && redecoded.is_ok(), || {
                format!("{rsl}: traced ends {end2:?} {end3:?}, expected {want:?}")
            });
    }

    /// Open a session, run one cached `(info=CPU)` query, close it.
    /// Returns (connect-to-authorization-ack, connect-to-close) in ns.
    pub fn session_op(&mut self) -> Option<(f64, f64)> {
        self.ledger.attempted += 1;
        let world = self.world;
        let req = InfoReq::single("CPU");
        let op = if self.tracer.enabled() {
            self.tracer.open("op.session", ROOT)
        } else {
            ROOT
        };
        let start = Instant::now();
        let mut client = match world.connect() {
            Ok(c) => c,
            Err(e) => {
                self.ledger.fail_op(format!("session connect: {e}"));
                return None;
            }
        };
        let connect = start.elapsed().as_nanos() as f64;
        self.sessions += 1;
        let before = self.tracer.enabled().then(|| self.service_counts());
        let res = client.query_rsl(&req.text);
        self.count_wire(&req.shape);
        if let Some(before) = before {
            self.add_traced_deltas(before);
        }
        if self.tracer.enabled() {
            self.trace_ping(&mut client, op);
        }
        drop(client);
        let total = start.elapsed().as_nanos() as f64;
        match res {
            Ok(reply) => self.check_info(&req, &reply),
            Err(e) => {
                self.ledger.fail_op(format!("session query: {e}"));
                return None;
            }
        }
        if self.tracer.enabled() {
            self.trace_gsi(op);
            self.trace_info_layers(&req, op);
            self.tracer.close(op);
        }
        Some((connect, total))
    }

    /// The four handshake steps and the authorization decision, on the
    /// session's own credentials.
    fn trace_gsi(&mut self, op: u32) {
        let world = self.world;
        let now = world.clock.now();
        let mut client_rng = SplitMix64::new(self.rng.next_u64());
        let mut server_rng = SplitMix64::new(self.rng.next_u64());
        let t = &mut self.tracer;
        let (hello, nonce) = t.time("gsi.client_hello_us", op, || {
            wire_client_hello(&world.user, &mut client_rng)
        });
        let responded = t.time("gsi.server_respond_us", op, || {
            wire_server_respond(
                &world.service_cred,
                &world.roots,
                &hello,
                now,
                &mut server_rng,
            )
        });
        let Ok((resp, pending)) = responded else {
            self.ledger
                .check(false, || "gsi: server rejected HELLO".to_string());
            return;
        };
        let finished = t.time("gsi.client_finish_us", op, || {
            wire_client_finish(&world.user, &world.roots, &resp, nonce, now)
        });
        let Ok((fin, _)) = finished else {
            self.ledger
                .check(false, || "gsi: client rejected RESP".to_string());
            return;
        };
        let verified = t.time("gsi.server_verify_us", op, || {
            wire_server_verify(&pending, &fin)
        });
        let Ok(sctx) = verified else {
            self.ledger
                .check(false, || "gsi: server rejected FIN".to_string());
            return;
        };
        let decision = t.time("gsi.authorize_us", op, || {
            world.authorizer.authorize(&sctx.peer, SERVICE_NAME, now)
        });
        self.ledger.check(
            matches!(&decision, Ok(d) if d.local_account == ACCOUNT),
            || format!("gsi: authorization gave {decision:?}"),
        );
    }
}

/// `CPU:count` and `Memory:total` must be what the host was configured
/// with.
fn check_host_values(
    ledger: &mut Ledger,
    rec: &InfoRecord,
    host: &infogram::host::machine::HostConfig,
) {
    let want = match rec.keyword.as_str() {
        "CPU" => Some(("CPU:count", host.cpus.to_string())),
        "Memory" => Some(("Memory:total", host.memory_total.to_string())),
        _ => None,
    };
    if let Some((attr, value)) = want {
        let got = rec.get(attr).map(|a| a.value.clone());
        ledger.check(got.as_deref() == Some(value.as_str()), || {
            format!("{attr} is {got:?}, host has {value}")
        });
    }
}

impl Ctx<'_> {
    /// Account for a warm-up query made during set-up: it is an op, its
    /// reply is the first reply of its keyword, and it reached the
    /// dispatcher.
    pub fn warmed(
        &mut self,
        req: &InfoReq,
        res: &Result<QueryResult, infogram::client::ClientError>,
    ) {
        self.ledger.attempted += 1;
        self.count_wire(&req.shape);
        match res {
            Ok(reply) => self.check_info(req, reply),
            Err(e) => self.ledger.fail_op(format!("warm-up {}: {e}", req.text)),
        }
    }
}

//! The service under test, built the way `quickstart::Sandbox` builds it
//! (PKI, gridmap, simulated host, Table 1 commands, batch queues), with
//! two differences: commands charge no simulated cost
//! (`ChargeMode::None`), and the log is a framed file log behind the
//! counting storage wrapper.

use crate::storage::{Counters, CountingStorage};
use infogram::client::InfoGramClient;
use infogram::core::{InfoGramParams, InfoGramService};
use infogram::exec::sandbox::{ExecMode, Policy};
use infogram::exec::wal::{FileStorage, FrameWal, Wal, WalConfig};
use infogram::gsi::{Authorizer, Certificate, CertificateAuthority, Credential, Dn, GridMap};
use infogram::host::commands::{ChargeMode, CommandRegistry};
use infogram::host::machine::{HostConfig, SimulatedHost};
use infogram::host::queue::{BatchQueue, FairShareQueue, FifoQueue, MachineAd, Matchmaker};
use infogram::info::config::ServiceConfig;
use infogram::proto::transport::mem::MemNetwork;
use infogram::proto::transport::tcp::TcpTransport;
use infogram::proto::transport::Transport;
use infogram::sim::clock::SharedClock;
use infogram::sim::metrics::MetricSet;
use infogram::sim::{SimTime, SplitMix64, SystemClock};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// TTL given to every Table 1 keyword whose TTL is not 0: one hour, far
/// longer than any run, so after warm-up every lookup of them is a hit.
pub const CACHED_TTL_MS: u64 = 3_600_000;

/// CPUs of the simulated host (checked against `CPU:count`).
pub const HOST_CPUS: u32 = 16;

/// Memory of the simulated host (checked against `Memory:total`).
pub const HOST_MEMORY: u64 = 24 << 30;

/// The mapped local account of the benchmark's user.
pub const ACCOUNT: &str = "gregor";

/// The authorization resource name (the service name).
pub const SERVICE_NAME: &str = "infogram";

/// The benchmark's grid user.
pub fn user_dn() -> Dn {
    Dn::user("Grid", "ANL", "Gregor")
}

/// Table 1 with the cached keywords' TTLs raised to [`CACHED_TTL_MS`];
/// `CPULoad` keeps TTL 0.
pub fn service_config() -> ServiceConfig {
    let text: String = ServiceConfig::table1()
        .entries
        .iter()
        .map(|e| {
            let ttl = if e.ttl.is_zero() { 0 } else { CACHED_TTL_MS };
            format!("{ttl} {} {}\n", e.keyword, e.command)
        })
        .collect();
    ServiceConfig::parse(&text).expect("derived Table 1 config parses")
}

/// Which transport a world speaks.
pub enum Net {
    /// Loopback TCP.
    Tcp(TcpTransport),
    /// The in-process network.
    Mem(Arc<MemNetwork>),
}

impl Net {
    /// A fresh transport of this kind with zeroed counters.
    pub fn fresh(tcp: bool) -> Net {
        if tcp {
            Net::Tcp(TcpTransport::new())
        } else {
            Net::Mem(MemNetwork::ideal())
        }
    }

    /// As the service and client see it.
    pub fn transport(&self) -> &dyn Transport {
        match self {
            Net::Tcp(t) => t,
            Net::Mem(m) => m,
        }
    }

    /// Bytes sent by both ends, frame overhead included.
    pub fn bytes(&self) -> u64 {
        let metrics = match self {
            Net::Tcp(t) => t.metrics(),
            Net::Mem(m) => m.metrics(),
        };
        metrics.counter_value("net.bytes")
    }

    /// Name for the host-facts line.
    pub fn name(&self) -> &'static str {
        match self {
            Net::Tcp(_) => "tcp-loopback",
            Net::Mem(_) => "mem",
        }
    }

    fn bind_addr(&self) -> &'static str {
        match self {
            Net::Tcp(_) => "127.0.0.1:0",
            Net::Mem(_) => "node00.grid.example.org:0",
        }
    }
}

/// A running service plus everything a caller needs to reach it.
pub struct World {
    /// Service clock (system time).
    pub clock: SharedClock,
    /// The transport both ends use.
    pub net: Net,
    /// The service.
    pub service: Arc<InfoGramService>,
    /// The caller's credential.
    pub user: Credential,
    /// The service's credential (for the traced GSI calls).
    pub service_cred: Credential,
    /// Trust anchors.
    pub roots: Vec<Certificate>,
    /// The gatekeeper's policy (for the traced authorization call).
    pub authorizer: Arc<Authorizer>,
    /// What the simulated host was configured with.
    pub host: HostConfig,
    /// Directory holding the log segments.
    pub wal_dir: PathBuf,
    /// Counters of the storage under the log.
    pub wal: Arc<Counters>,
}

/// The log's segment prefix inside a world's directory.
pub fn wal_prefix(dir: &Path) -> PathBuf {
    dir.join("wal")
}

/// Open the framed file log in `dir` with the default tuning — what
/// `FileWal::open` builds — behind the counting wrapper.
pub fn open_log(dir: &Path, counters: Arc<Counters>) -> std::io::Result<Wal> {
    let storage = CountingStorage::new(FileStorage::open(wal_prefix(dir))?, counters);
    let sink = FrameWal::open(Arc::new(storage), WalConfig::default())?;
    Ok(Wal::new(Box::new(sink)))
}

impl World {
    /// Build and start the service over the log in `wal_dir` (which may
    /// already hold history). Key material and host models are seeded
    /// from `seed`.
    pub fn start(net: Net, wal_dir: &Path, seed: u64) -> World {
        let clock: SharedClock = SystemClock::shared();
        let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let year = Duration::from_secs(365 * 86_400);
        let ca = CertificateAuthority::new_root(
            &Dn::user("Grid", "CA", "Benchmark Root CA"),
            &mut rng,
            SimTime::ZERO,
            10 * year,
        );
        let roots = vec![ca.certificate().clone()];
        let user = ca.issue(&user_dn(), &mut rng, SimTime::ZERO, year);
        let service_cred = ca.issue(
            &Dn::user("Grid", "Hosts", "node00.grid.example.org"),
            &mut rng,
            SimTime::ZERO,
            year,
        );
        let mut gridmap = GridMap::new();
        gridmap.add(user_dn(), &[ACCOUNT]);
        let authorizer = Arc::new(Authorizer::gridmap_only(gridmap));

        let host_cfg = HostConfig {
            hostname: "node00.grid.example.org".to_string(),
            cpus: HOST_CPUS,
            memory_total: HOST_MEMORY,
            seed: rng.next_u64(),
            ..HostConfig::default()
        };
        let host = SimulatedHost::new(host_cfg.clone(), clock.clone());
        let registry = CommandRegistry::new(host, ChargeMode::None);
        let queues: Vec<(String, Arc<dyn BatchQueue>)> = vec![
            (
                "pbs".to_string(),
                Arc::new(FifoQueue::new(clock.clone(), 4)) as Arc<dyn BatchQueue>,
            ),
            (
                "fair".to_string(),
                Arc::new(FairShareQueue::new(clock.clone(), 4)),
            ),
            (
                "condor".to_string(),
                Arc::new(Matchmaker::new(
                    clock.clone(),
                    vec![
                        MachineAd::new("m1", &[("os", "linux"), ("arch", "x86")]),
                        MachineAd::new("m2", &[("os", "linux"), ("arch", "ia64")]),
                    ],
                )),
            ),
        ];

        let counters = Arc::new(Counters::default());
        let wal = open_log(wal_dir, Arc::clone(&counters)).expect("open the service log");
        let service = InfoGramService::start(
            InfoGramParams {
                service_name: SERVICE_NAME.to_string(),
                bind_addr: net.bind_addr().to_string(),
                config: service_config(),
                sandbox_policy: Policy::restrictive(),
                sandbox_mode: ExecMode::Isolated,
                credential: service_cred.clone(),
                trust_roots: roots.clone(),
                authorizer: Arc::clone(&authorizer),
            },
            registry,
            queues,
            wal,
            net.transport(),
            clock.clone(),
            MetricSet::new(),
        )
        .expect("service starts");
        World {
            clock,
            net,
            service,
            user,
            service_cred,
            roots,
            authorizer,
            host: host_cfg,
            wal_dir: wal_dir.to_path_buf(),
            wal: counters,
        }
    }

    /// Open one authenticated session (GSI handshake + authorization
    /// ack).
    pub fn connect(&self) -> Result<InfoGramClient, infogram::client::ClientError> {
        InfoGramClient::connect(
            self.net.transport(),
            self.service.addr(),
            &self.user,
            &self.roots,
            self.clock.clone(),
        )
    }

    /// The service's telemetry (shared by engine, dispatcher and info
    /// service).
    pub fn telemetry(&self) -> &MetricSet {
        self.service.engine().metrics()
    }
}

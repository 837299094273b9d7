//! Metric names and units, the result line, and host facts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (printed with `--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("cpu_us_per_op", "us"),
    ("wire_bytes_per_op", "bytes"),
    ("peak_rss_mb", "MB"),
    ("submit_ack_p50_us", "us"),
    ("connect_p50_us", "us"),
];

/// Per-layer metrics (printed with `--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("proto.ping_rtt_us", "us"),
    ("proto.request_decode_ns", "ns"),
    ("proto.reply_encode_ns", "ns"),
    ("proto.render_ldif_ns", "ns"),
    ("proto.render_xml_ns", "ns"),
    ("proto.render_all_ns", "ns"),
    ("client.reply_parse_ns", "ns"),
    ("rsl.parse_info_ns", "ns"),
    ("rsl.parse_job_ns", "ns"),
    ("core.dispatch_info_ns", "ns"),
    ("core.dispatch_submit_ns", "ns"),
    ("core.dispatch_status_ns", "ns"),
    ("core.dispatch_self_ns", "ns"),
    ("core.conn_setup_self_us", "us"),
    ("info.answer_hit_ns", "ns"),
    ("info.answer_miss_ns", "ns"),
    ("info.answer_all_ns", "ns"),
    ("info.hit_ratio", "ratio"),
    ("info.lookups", "count"),
    ("info.provider_runs_per_op", "runs/op"),
    ("host.provider_run_ns", "ns"),
    ("exec.submit_us", "us"),
    ("exec.status_us", "us"),
    ("exec.wal_bytes_per_job", "bytes/job"),
    ("exec.wal_syncs_per_job", "syncs/job"),
    ("exec.checkpoints_per_job", "ckpts/job"),
    ("exec.checkpoint_byte_share", "ratio"),
    ("exec.wal_bytes_appended", "bytes"),
    ("exec.storage_append_us", "us"),
    ("exec.storage_sync_us", "us"),
    ("exec.recovery_ms", "ms"),
    ("gsi.client_hello_us", "us"),
    ("gsi.server_respond_us", "us"),
    ("gsi.client_finish_us", "us"),
    ("gsi.server_verify_us", "us"),
    ("gsi.authorize_us", "us"),
];

/// A set of metric values bound to one of the tables above.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set for `table`.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Set a value. Panics on a name the table does not have: every
    /// printed name must be one `BENCHMARK.json` declares.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values.insert(name, value);
    }

    /// Names in the table with no finite value.
    pub fn missing(&self) -> Vec<&'static str> {
        self.table
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.values.get(n).is_some_and(|v| v.is_finite()))
            .collect()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in table order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (name, unit) in self.table {
            if let Some(v) = self.values.get(name) {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(
                    out,
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*v)
                );
            }
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit Rust prints (non-finite values, which
/// JSON cannot carry, become `null` and fail the result check).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Facts about the machine and build a run measured on.
pub fn host_facts(transport: &str, wal_dir: &std::path::Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let fields = [
        ("nproc", nproc.to_string()),
        ("profile", string(profile)),
        ("transport", string(transport)),
        (
            "cpus_online",
            string(&read_trimmed("/sys/devices/system/cpu/online")),
        ),
        ("cpus_allowed", string(&cpus_allowed())),
        ("wal_fs", string(&filesystem_of(wal_dir))),
        ("git_rev", string(&git_revision())),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The CPUs this process may run on (`Cpus_allowed_list`).
fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(path) = std::fs::canonicalize(path) else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, at, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The checkout's git revision, or `unknown` outside a git work tree.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// User plus system CPU time of this whole process, in µs. Read from
/// `/proc/self/stat`, whose clock ticks are 1/100 s on Linux.
pub fn process_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f[11].parse::<f64>().expect("utime") + f[12].parse::<f64>().expect("stime");
    ticks * 10_000.0
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_unique_names() {
        for table in [END_TO_END, PER_LAYER] {
            let mut names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), table.len());
        }
    }

    #[test]
    fn json_lists_set_metrics_in_table_order() {
        let mut m = Metrics::new(END_TO_END);
        m.set("ops_per_s", 12.5);
        m.set("setup_s", 0.25);
        assert_eq!(
            m.to_json(),
            "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}"
        );
        assert_eq!(m.missing().len(), END_TO_END.len() - 2);
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_metric_is_refused() {
        Metrics::new(PER_LAYER).set("setup_s", 1.0);
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        // Spin until the tick-granular CPU clock moves (at most 2 s).
        let before = process_cpu_us();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while process_cpu_us() == before && start.elapsed().as_secs() < 2 {
            for i in 0..100_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
        }
        assert!(process_cpu_us() > before);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}

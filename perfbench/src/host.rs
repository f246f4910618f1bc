//! Host facts: the fingerprint printed with every result, peak memory and
//! on-disk footprint.

use std::path::Path;

use serde::Value;

/// ISA extensions that select a keystream engine or a scoring kernel.
const ISA_FLAGS: [&str; 8] = [
    "sse4_2", "avx", "avx2", "bmi2", "avx512f", "avx512bw", "avx512vl", "asimd",
];

/// CPU model, thread count, relevant ISA flags and the keystream engine the
/// dispatcher resolves to. Numbers from two fingerprints that differ are
/// not comparable.
pub fn fingerprint() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |names: &[&str]| {
        cpuinfo
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| names.contains(&k.trim()))
            .map_or(String::new(), |(_, v)| v.trim().to_string())
    };
    let model = field(&["model name", "Hardware", "CPU part"]);
    let flags = field(&["flags", "Features"]);
    let isa: Vec<Value> = ISA_FLAGS
        .iter()
        .filter(|f| flags.split_whitespace().any(|g| g == **f))
        .map(|f| Value::Str((*f).to_string()))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    Value::Object(vec![
        ("cpu".into(), Value::Str(model)),
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("isa".into(), Value::Array(isa)),
        (
            "engine".into(),
            Value::Str(rc4_accel::AutoBatch::new().engine_name().to_string()),
        ),
    ])
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in
/// kB.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut parts = rest.split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

/// Peak resident set of a live process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Largest peak resident set of any terminated, waited-for descendant, in
/// MB (`getrusage(RUSAGE_CHILDREN)`; grandchildren count when their parent
/// waited for them, as the campaign coordinator does for its workers).
pub fn children_peak_rss_mb() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable struct laid out as Linux's
    // `struct rusage` on 64-bit targets (two timevals then fourteen longs);
    // getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// Bytes held by the regular files under `path` (0 when it does not exist).
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => disk_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm_from_a_status_text() {
        let status = "Name:\trepro\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(12345));
        assert_eq!(vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        let mb = peak_rss_mb("self").expect("procfs is mounted");
        assert!(mb > 0.5, "{mb}");
    }

    #[test]
    fn children_peak_rss_covers_a_waited_child() {
        std::process::Command::new("true")
            .status()
            .expect("spawn true");
        assert!(children_peak_rss_mb() > 0.0);
    }

    #[test]
    fn disk_bytes_walks_subdirectories() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("disk-test-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("a"), [0u8; 100]).unwrap();
        std::fs::write(dir.join("sub/b"), [0u8; 28]).unwrap();
        assert_eq!(disk_bytes(&dir), 128);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(disk_bytes(&dir), 0);
        let _ = std::fs::remove_dir(dir.parent().unwrap());
    }
}

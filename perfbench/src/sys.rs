//! What the benchmark reads about its own process and the machine it
//! runs on: CPU time and peak resident set from `/proc/self`, and the
//! fingerprint printed beside every result.

use std::fs;
use std::path::Path;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat` times (`USER_HZ`,
/// fixed at 100 on every Linux architecture the runtime targets).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds consumed so far by every thread of this
/// process.
pub fn process_cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) is parenthesised and may hold spaces, so
    // count fields from the last ')': utime and stime are fields 14, 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<f64>().expect("numeric CPU tick field") };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM present in /proc/self/status");
    kib / 1024.0
}

/// One JSON object naming the commit and machine a result came from.
pub fn fingerprint_json() -> String {
    let git = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "none (not a git checkout)".to_string()
    };
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"fingerprint\":{{\"git_rev\":{},\"source_fnv64\":\"{:016x}\",\"rustc\":{},\"nproc\":{nproc},\"cpu_model\":{}}}}}",
        json_string(&git),
        source_hash(),
        json_string(&command_line("rustc", &["-V"])),
        json_string(&cpu),
    )
}

/// First line of a command's standard output, or why there is none.
fn command_line(program: &str, args: &[&str]) -> String {
    match Command::new(program).args(args).output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .to_string(),
        Ok(out) => format!("unavailable ({})", out.status),
        Err(e) => format!("unavailable ({e})"),
    }
}

/// FNV-1a over the path and contents of every file under `crates/` and
/// the root manifest, visited in sorted order: a commit fingerprint that
/// also exists in a checkout without git metadata.
fn source_hash() -> u64 {
    fn visit(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                visit(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf()];
    visit(Path::new("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let bytes = fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// A JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

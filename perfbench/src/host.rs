//! The host block recorded with every result: cores, build, toolchain,
//! kernel and the source it measured.

use parcom_obs::json;
use std::path::Path;
use std::process::Command;

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the path and bytes of every file under the given roots,
/// in sorted order: identifies the measured source when no git metadata
/// is at hand.
fn source_hash(roots: &[&Path]) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in roots {
        if root.is_dir() {
            walk(root, &mut files);
        } else {
            files.push(root.to_path_buf());
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The host block as a JSON object.
pub fn host_json(threads: &[(&str, usize)]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = command_output("git", &["--git-dir=.git", "rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release (lto = thin)"
    };
    let source = source_hash(&[
        Path::new("crates"),
        Path::new("shims"),
        Path::new("Cargo.toml"),
        Path::new("Cargo.lock"),
    ]);
    let mut out = format!("{{\"available_parallelism\":{cores},\"threads\":{{");
    for (i, (what, n)) in threads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(&mut out, what);
        out.push_str(&format!(":{n}"));
    }
    out.push_str("},\"commit\":");
    json::write_str(&mut out, &commit);
    out.push_str(&format!(",\"source_fnv64\":\"{source:016x}\",\"profile\":"));
    json::write_str(&mut out, profile);
    out.push_str(",\"rustc\":");
    json::write_str(&mut out, &rustc);
    out.push_str(",\"kernel\":");
    json::write_str(&mut out, &kernel);
    out.push('}');
    out
}

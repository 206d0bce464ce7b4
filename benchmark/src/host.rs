//! Where a number was measured: host fingerprint and source commit, recorded
//! next to every result so timed comparisons across hosts can be refused.

use crate::json::Json;
use std::path::Path;

/// Workers of the parallel configuration: every core up to four. Recorded in
/// the fingerprint because every `*_p` number depends on it.
pub fn workers() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `{cpu, nproc, workers}` — two results are comparable in time only when
/// these agree.
pub fn fingerprint() -> Json {
    Json::obj([
        ("cpu", Json::str(cpu_model())),
        ("nproc", Json::from(nproc())),
        ("workers", Json::from(workers())),
    ])
}

/// The checked-out commit, read from `.git` by hand (the benchmark starts no
/// processes); `"unknown"` outside a git checkout, as in the driver's copy.
pub fn commit() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        if let Some(c) = commit_in(&d.join(".git")) {
            return c;
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".to_string()
}

fn commit_in(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_has_the_three_fields() {
        let f = fingerprint();
        assert!(f.get("cpu").and_then(Json::as_str).is_some());
        assert!(f.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
        let w = f.get("workers").and_then(Json::as_f64).unwrap();
        assert!((1.0..=4.0).contains(&w));
    }

    #[test]
    fn commit_resolves_loose_packed_and_detached_heads() {
        // Under the package's ignored `out/`, not the system temp directory.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-git-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        assert_eq!(commit_in(&git), None, "no HEAD");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(
            git.join("packed-refs"),
            "# pack-refs\nabc123 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(commit_in(&git).as_deref(), Some("abc123"));
        std::fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(commit_in(&git).as_deref(), Some("def456"));
        std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(commit_in(&git).as_deref(), Some("0123abcd"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

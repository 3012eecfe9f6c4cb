//! Build-time provenance for the benchmark's result lines: the compiler
//! version, the git revision when the checkout has a `.git`, and a digest
//! of the sources the benchmark measures (which identifies the code even
//! in a checkout without git metadata).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// What the digest covers, relative to the repository root.
const SOURCES: &[&str] = &[
    "crates",
    "shims",
    "Cargo.toml",
    "Cargo.lock",
    "perfbench/src",
];

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest)
        .parent()
        .expect("the benchmark lives one level below the repository root");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={}", git_rev(root));

    let mut files = Vec::new();
    for s in SOURCES {
        let path = root.join(s);
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
            collect(&path, &mut files);
        }
    }
    files.sort();
    // FNV-1a over each file's relative path and contents.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file);
        let bytes = fs::read(file).unwrap_or_default();
        for &b in rel.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={hash:016x}");
}

/// The commit `HEAD` names, read from `.git` without running git.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown (no .git in this checkout)".to_string();
    };
    println!("cargo:rerun-if-changed={}", git.join("HEAD").display());
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    let loose = git.join(reference);
    if let Ok(rev) = fs::read_to_string(&loose) {
        println!("cargo:rerun-if-changed={}", loose.display());
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference} not found)"))
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let Ok(entries) = fs::read_dir(path) else {
            return;
        };
        for entry in entries.flatten() {
            collect(&entry.path(), out);
        }
    } else {
        out.push(path.to_path_buf());
    }
}

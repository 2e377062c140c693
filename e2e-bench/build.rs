//! Stamps provenance into the benchmark binary: the compiler version, the
//! git commit (when built inside a git checkout of this repository) and a
//! digest of every source file the benchmark measures, which identifies the
//! code even where no git metadata exists.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let repo = manifest
        .parent()
        .expect("benchmark lives inside the repository");
    println!("cargo:rerun-if-changed=../crates");
    println!("cargo:rerun-if-changed=src");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version = run(Command::new(rustc).arg("-V")).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BENCH_RUSTC={rustc_version}");

    // the ceiling keeps git from finding a repository above this checkout
    let commit = run(Command::new("git")
        .env("GIT_CEILING_DIRECTORIES", repo.parent().unwrap_or(repo))
        .arg("-C")
        .arg(repo)
        .args(["rev-parse", "HEAD"]));
    println!(
        "cargo:rustc-env=BENCH_COMMIT={}",
        commit.unwrap_or_else(|| "none".into())
    );

    let mut files = Vec::new();
    collect(&repo.join("crates"), &mut files);
    collect(&manifest.join("src"), &mut files);
    files.sort();
    // FNV-1a over (relative path, contents) of every source file
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f.strip_prefix(repo).unwrap_or(f);
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in rel.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=BENCH_SOURCE_DIGEST={h:016x}");
}

fn run(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect(&p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

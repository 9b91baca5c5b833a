//! Captures the compiler version at build time for the result stamp
//! (asking `rustc -V` at run time could name a different toolchain than
//! the one that produced the binary).

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    println!("cargo:rustc-env=FANCY_BENCHMARK_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}

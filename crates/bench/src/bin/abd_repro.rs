//! `abd_repro` — replay, shrink and explain failure-repro artifacts.
//!
//! Nemesis soaks emit `.ron` artifacts under `target/repro/` when a
//! campaign fails (see `abd_simnet::repro`). This CLI closes the loop:
//!
//! ```text
//! abd_repro replay  <artifact.ron>             # reproduce bit-for-bit
//! abd_repro shrink  <artifact.ron> [-o OUT]    # minimize the campaign
//! abd_repro explain <artifact.ron>             # describe without running
//! ```
//!
//! `replay` exits 0 when the artifact's failure reproduces **and** the
//! trace digest matches the recorded one (the artifact is faithful); it
//! exits 1 when the run passes (the bug is gone — delete the artifact) or
//! diverges from the recording. `shrink` exits 0 with a minimal artifact
//! written next to the input (or to `-o`), and nonzero when the input no
//! longer fails. `explain` runs nothing: it prints the configuration, the
//! read path and phase graph the protocol walks, the recorded digest and
//! failure, and the fault timeline.

use abd_core::engine::PHASE_GRAPH;
use abd_core::phase::PhaseEdges;
use abd_core::types::ReadMode;
use abd_simnet::repro::Repro;
use abd_simnet::shrink::shrink;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: abd_repro <replay|shrink|explain> <artifact.ron> [options]\n\
         \n\
         replay  <artifact.ron>           replay the campaign; verify the failure and\n\
         \u{20}                                the recorded trace digest reproduce\n\
         shrink  <artifact.ron> [-o OUT]  minimize the failing campaign (ddmin over\n\
         \u{20}                                faults, durations, and scripts); writes\n\
         \u{20}                                OUT (default: <artifact>.min.ron)\n\
         explain <artifact.ron>           describe without running: the configuration,\n\
         \u{20}                                the recorded failure, and the fault timeline"
    );
    ExitCode::from(2)
}

fn load(path: &Path) -> Result<Repro, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Repro::from_ron(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn describe(r: &Repro) {
    println!("artifact:  {}", r.name);
    println!("protocol:  {:?}", r.protocol);
    // Every spec runs the one quorum-operation engine, bare or wrapped.
    println!("phases:    engine: {}", PhaseEdges::of(PHASE_GRAPH));
    if r.protocol.read_mode() == ReadMode::Relay {
        println!(
            "read path: relay — reads walk `Invoke -> RelayRead -> Done` \
             (server-to-server forwarding; atomicity argument in DESIGN.md §13)"
        );
    }
    println!(
        "cluster:   n = {}, backoff_base = {:?}, think = {}, deadline = {}",
        r.n, r.backoff_base, r.think, r.deadline
    );
    println!("network:   {:?}", r.sim);
    println!("oracle:    {:?}", r.oracle);
    println!(
        "scripts:   {} clients, {} ops total",
        r.scripts.len(),
        r.scripts.iter().map(Vec::len).sum::<usize>()
    );
    println!("digest:    {:#018x}", r.expected_digest);
    if !r.reason.is_empty() {
        println!("reason:    {}", r.reason.replace('\n', "\n           "));
    }
    println!("schedule:\n{}", r.schedule.timeline());
}

fn cmd_replay(path: &Path) -> Result<ExitCode, String> {
    let r = load(path)?;
    println!(
        "replaying '{}' ({} faults, {:?} oracle)...",
        r.name,
        r.schedule.faults().len(),
        r.oracle
    );
    let out = r.run();
    match &out.failure {
        None => {
            println!("PASS: the campaign no longer fails — the artifact is stale");
            Ok(ExitCode::FAILURE)
        }
        Some(f) => {
            println!("failure reproduced: {f}");
            if out.digest == r.expected_digest {
                println!("trace digest matches the recording ({:#018x})", out.digest);
                Ok(ExitCode::SUCCESS)
            } else {
                println!(
                    "DIGEST MISMATCH: recorded {:#018x}, replayed {:#018x} — \
                     the artifact does not describe this execution",
                    r.expected_digest, out.digest
                );
                Ok(ExitCode::FAILURE)
            }
        }
    }
}

fn cmd_shrink(path: &Path, out_path: Option<PathBuf>) -> Result<ExitCode, String> {
    let r = load(path)?;
    println!(
        "shrinking '{}' ({} faults, {} ops)...",
        r.name,
        r.schedule.faults().len(),
        r.scripts.iter().map(Vec::len).sum::<usize>()
    );
    let outcome = shrink(&r)?;
    println!("{}", outcome.report());
    let out_path = out_path.unwrap_or_else(|| {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("artifact");
        path.with_file_name(format!("{stem}.min.ron"))
    });
    std::fs::write(&out_path, outcome.minimal.to_ron())
        .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    println!("minimal artifact written to {}", out_path.display());
    Ok(ExitCode::SUCCESS)
}

fn cmd_explain(path: &Path) -> Result<ExitCode, String> {
    describe(&load(path)?);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => return usage(),
    };
    let mut path: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "-o" | "--out" => {
                if i + 1 >= rest.len() {
                    return usage();
                }
                out = Some(PathBuf::from(&rest[i + 1]));
                i += 2;
            }
            a if path.is_none() && !a.starts_with('-') => {
                path = Some(PathBuf::from(a));
                i += 1;
            }
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };
    let result = match cmd {
        "replay" => cmd_replay(&path),
        "shrink" => cmd_shrink(&path, out),
        "explain" => cmd_explain(&path),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("abd_repro: {e}");
            ExitCode::FAILURE
        }
    }
}

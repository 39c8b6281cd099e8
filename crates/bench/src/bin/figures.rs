//! Regenerates every table and figure of the ARC paper's evaluation.
//!
//! Usage:
//! ```text
//! figures [--scale S] [--jobs N] [--telemetry] [--technique <name>]
//!         [--chrome-trace <path>] [--store DIR] [--daemon SOCK]
//!         [--passes SPEC]
//!         [all|tab1|fig4|obs1|fig7|fig8|fig18|fig19|fig20|fig21|fig22|
//!          fig23|fig24|fig25|fig26|fig27|fig28|area|pagerank|scaling|
//!          roofline|tune]
//! ```
//!
//! `--jobs N` (or the `ARC_JOBS` environment variable) sets how many
//! worker threads the harness fans simulation cells across; the default
//! is the machine's core count. The results are identical at any job
//! count.
//!
//! `all` runs everything (the default) and also writes
//! `experiments/results.json` with the raw data.
//!
//! `--telemetry` additionally simulates the Baseline/ARC-HW gradcomp
//! cells with the observability layer enabled and writes one
//! machine-readable summary per cell to `experiments/telemetry.json`.
//! `--technique <name>` restricts the telemetry sweep to one registered
//! technique instead (any registry label or CLI name — `sw-b-16`,
//! `phi`, …; a bad name lists every valid spelling).
//! `--chrome-trace <path>` dumps the Baseline 3D-DR run on the 4090
//! model as a `chrome://tracing` / Perfetto JSON timeline.
//!
//! `--store DIR` (or `ARC_STORE`) routes simulations through the
//! persistent result store — reruns at the same scale skip every
//! already-simulated cell, and every render the store's trace-digest
//! memo makes unnecessary; a `store-summary frames_built … hits …
//! misses … puts …` line on stderr says how much was skipped.
//! `--daemon SOCK` sends cells to a running `simserved` instead. Both
//! produce byte-identical output to a plain run.
//!
//! `--passes SPEC` (or `ARC_PASSES`) runs the trace-IR optimizer pass
//! pipeline (`arc_core::passes`) on every kernel before its technique
//! rewrite: `all`, `none`, or a comma list like `dead-lane,coalesce`.
//! The pipeline is part of the result-store key, so piped and plain
//! runs never collide.

use std::collections::BTreeMap;
use std::env;
use std::fs;

use arc_bench::figures::{self, BreakdownRow, StallRow, SwRow, ThresholdRow};
use arc_bench::harness::Cell;
use arc_bench::{Harness, Series};
use arc_workloads::Technique;
use gpu_sim::{GpuConfig, TelemetrySummary};
use serde::Serialize;

/// One `experiments/telemetry.json` entry: the cell key plus its
/// sampled summary.
#[derive(Serialize)]
struct TelemetryRow {
    config: String,
    technique: String,
    workload: String,
    summary: TelemetrySummary,
}

fn main() {
    let mut args = env::args().skip(1).collect::<Vec<_>>();
    let mut scale = 1.0f64;
    if let Some(pos) = args.iter().position(|a| a == "--scale") {
        args.remove(pos);
        scale = args
            .get(pos)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("--scale requires a positive number");
                std::process::exit(2);
            });
        args.remove(pos);
    }
    let mut jobs = None;
    if let Some(pos) = args.iter().position(|a| a == "--jobs") {
        args.remove(pos);
        jobs = Some(
            args.get(pos)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("--jobs requires a positive integer");
                    std::process::exit(2);
                }),
        );
        args.remove(pos);
    }
    let mut store = None;
    if let Some(pos) = args.iter().position(|a| a == "--store") {
        args.remove(pos);
        store = Some(args.get(pos).cloned().unwrap_or_else(|| {
            eprintln!("--store requires a directory");
            std::process::exit(2);
        }));
        args.remove(pos);
    }
    let mut daemon = None;
    if let Some(pos) = args.iter().position(|a| a == "--daemon") {
        args.remove(pos);
        daemon = Some(args.get(pos).cloned().unwrap_or_else(|| {
            eprintln!("--daemon requires a socket path");
            std::process::exit(2);
        }));
        args.remove(pos);
    }
    let mut passes = None;
    if let Some(pos) = args.iter().position(|a| a == "--passes") {
        args.remove(pos);
        let spec = args.get(pos).cloned().unwrap_or_else(|| {
            eprintln!("--passes requires a pass list (`all`, `none`, or comma-separated names)");
            std::process::exit(2);
        });
        args.remove(pos);
        match arc_core::passes::PassPipeline::parse(&spec) {
            Ok(p) => passes = Some(p),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    let mut telemetry = false;
    if let Some(pos) = args.iter().position(|a| a == "--telemetry") {
        args.remove(pos);
        telemetry = true;
    }
    let mut telemetry_techniques = vec![Technique::Baseline, Technique::ArcHw];
    if let Some(pos) = args.iter().position(|a| a == "--technique") {
        args.remove(pos);
        let name = args.get(pos).cloned().unwrap_or_else(|| {
            eprintln!("--technique requires a technique name");
            std::process::exit(2);
        });
        args.remove(pos);
        // Registry parse: accepts any registered label or CLI name and
        // reports the full list of valid spellings on a bad argument.
        match name.parse::<Technique>() {
            Ok(t) => telemetry_techniques = vec![t],
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        telemetry = true;
    }
    let mut chrome_trace = None;
    if let Some(pos) = args.iter().position(|a| a == "--chrome-trace") {
        args.remove(pos);
        chrome_trace = Some(args.get(pos).cloned().unwrap_or_else(|| {
            eprintln!("--chrome-trace requires an output path");
            std::process::exit(2);
        }));
        args.remove(pos);
    }
    let which = args
        .first()
        .map(String::as_str)
        .unwrap_or("all")
        .to_string();
    let mut h = Harness::new(scale);
    if let Some(jobs) = jobs {
        h.set_jobs(jobs);
    }
    // `Harness::new` already honors `ARC_PASSES`; the flag overrides it.
    if let Some(p) = passes {
        h.set_passes(p);
    }
    if let Some(dir) = &store {
        if let Err(e) = h.set_store_dir(dir) {
            eprintln!("cannot open result store {dir}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(sock) = &daemon {
        if let Err(e) = h.set_daemon(sock) {
            eprintln!("cannot reach simserved at {sock}: {e}");
            std::process::exit(1);
        }
    }
    let mut json = BTreeMap::<String, serde_json::Value>::new();

    let run_all = which == "all";
    let want = |name: &str| run_all || which == name;

    if want("tab1") {
        tab1();
    }
    if want("fig4") {
        let rows = figures::fig4(&mut h);
        print_fig4(&rows);
        json.insert("fig4".into(), serde_json::to_value(&rows).unwrap());
    }
    if want("obs1") {
        let rows = figures::obs1(&mut h);
        println!("\n== S3.1 Observation 1: intra-warp atomic locality ==");
        println!(
            "{:<8} {:>12} {:>18} {:>12}",
            "workload", "same-addr", "same-addr(>=2ln)", "mean active"
        );
        for r in &rows {
            println!(
                "{:<8} {:>11.2}% {:>17.2}% {:>12.1}",
                r.workload,
                100.0 * r.same_address,
                100.0 * r.same_address_multi,
                r.mean_active
            );
        }
        json.insert("obs1".into(), serde_json::to_value(&rows).unwrap());
    }
    if want("fig7") {
        let rows = figures::fig7(&mut h, &["3D-PR", "NV-LE"]);
        println!("\n== Fig. 7: active-lane histograms (log-scale in the paper) ==");
        for r in &rows {
            println!("{}:", r.workload);
            for (k, &n) in r.buckets.iter().enumerate() {
                if n > 0 {
                    println!("  {k:>2} active lanes: {n}");
                }
            }
        }
        json.insert("fig7".into(), serde_json::to_value(&rows).unwrap());
    }
    if want("fig8") {
        let rows = figures::fig8(&mut h);
        print_stalls("Fig. 8: baseline warp-stall breakdown", &rows);
        json.insert("fig8".into(), serde_json::to_value(&rows).unwrap());
    }
    for (name, cfg) in [
        ("fig18", GpuConfig::rtx3060_sim()),
        ("fig19", GpuConfig::rtx4090_sim()),
    ] {
        if want(name) {
            let series = figures::fig18_19(&mut h, &cfg);
            print_series(
                &format!("{name}: gradcomp speedup vs baseline on {}", cfg.name),
                &series,
            );
            json.insert(name.into(), serde_json::to_value(&series).unwrap());
        }
    }
    for (name, cfg) in [
        ("fig20", GpuConfig::rtx3060_sim()),
        ("fig21", GpuConfig::rtx4090_sim()),
    ] {
        if want(name) {
            let series = figures::fig20_21(&mut h, &cfg);
            print_series(
                &format!("{name}: atomic-stall reduction on {}", cfg.name),
                &series,
            );
            json.insert(name.into(), serde_json::to_value(&series).unwrap());
        }
    }
    if want("fig22") {
        let rows = figures::fig22(&mut h);
        print_fig22(&rows);
        json.insert("fig22".into(), serde_json::to_value(&rows).unwrap());
    }
    if want("fig23") {
        let rows = figures::fig23(&mut h);
        print_fig23(&rows);
        json.insert("fig23".into(), serde_json::to_value(&rows).unwrap());
    }
    if want("fig24") {
        let rows = figures::fig24(&mut h);
        print_stalls("Fig. 24: warp stalls under ARC-SW", &rows);
        json.insert("fig24".into(), serde_json::to_value(&rows).unwrap());
    }
    if want("fig25") {
        let mut out = Vec::new();
        for cfg in figures::gpus() {
            let s = figures::fig25(&mut h, &cfg);
            print_series(
                "fig25: ARC-HW normalized to best ARC-SW",
                std::slice::from_ref(&s),
            );
            out.push(s);
        }
        json.insert("fig25".into(), serde_json::to_value(&out).unwrap());
    }
    if want("fig26") {
        let series = figures::fig26(&mut h);
        print_series("fig26: ARC-SW vs CCCL (4090 model)", &series);
        json.insert("fig26".into(), serde_json::to_value(&series).unwrap());
    }
    for (name, hw) in [("fig27", false), ("fig28", true)] {
        if want(name) {
            let mut out = Vec::new();
            for cfg in figures::gpus() {
                let s = figures::fig27_28(&mut h, &cfg, hw);
                print_series(
                    &format!("{name}: energy reduction"),
                    std::slice::from_ref(&s),
                );
                out.push(s);
            }
            json.insert(name.into(), serde_json::to_value(&out).unwrap());
        }
    }
    if want("area") {
        let rows = figures::area();
        println!("\n== S5.4 ARC-HW area overhead ==");
        for r in &rows {
            println!(
                "{:<10} +{} transistors = {:.3}% of die",
                r.gpu, r.added_transistors, r.overhead_percent
            );
        }
        json.insert("area".into(), serde_json::to_value(&rows).unwrap());
    }
    if want("pagerank") {
        let row = figures::pagerank_contrast(&mut h);
        println!("\n== S5.6 pagerank contrast ==");
        println!(
            "pagerank same-address (>=2 lanes): {:.3}%  |  3D-DR: {:.1}%",
            100.0 * row.pagerank_locality,
            100.0 * row.rendering_locality
        );
        println!(
            "pagerank atomic share of memory accesses: {:.1}%",
            100.0 * row.pagerank_atomic_fraction
        );
        json.insert("pagerank".into(), serde_json::to_value(&row).unwrap());
    }
    if want("scaling") {
        let rows = figures::scaling_sweep(&[0.4, 0.6, 0.8, 1.0], h.jobs());
        println!("\n== scene-size scaling (3D-DR on the 4090 model) ==");
        println!(
            "{:>6} {:>14} {:>15} {:>12}",
            "scale", "atomics", "gradcomp share", "ARC-HW"
        );
        for r in &rows {
            println!(
                "{:>6.2} {:>14} {:>14.1}% {:>11.2}x",
                r.scale,
                r.atomic_requests,
                100.0 * r.gradcomp_share,
                r.arc_hw_speedup
            );
        }
        json.insert("scaling".into(), serde_json::to_value(&rows).unwrap());
    }
    if want("roofline") {
        let rows = figures::roofline(&mut h);
        println!("\n== analytic roofline vs simulator (ARC-HW, 4090 model) ==");
        println!("{:<8} {:>11} {:>11}", "workload", "predicted", "simulated");
        for r in &rows {
            println!(
                "{:<8} {:>10.2}x {:>10.2}x",
                r.workload, r.predicted_hw, r.simulated_hw
            );
        }
        json.insert("roofline".into(), serde_json::to_value(&rows).unwrap());
    }
    if want("tune") {
        let rows = figures::tune_demo(&mut h);
        println!("\n== S5.5.3 automatic threshold tuning (SW-B, 4090 model) ==");
        for r in &rows {
            println!(
                "{:<8} best threshold = {:<3} ({:.2}x over worst probe)",
                r.workload, r.best_threshold, r.best_over_worst
            );
        }
        json.insert("tune".into(), serde_json::to_value(&rows).unwrap());
    }

    if telemetry {
        let mut cells: Vec<Cell> = Vec::new();
        for cfg in [GpuConfig::rtx3060_sim(), GpuConfig::rtx4090_sim()] {
            for &t in &telemetry_techniques {
                for id in h.workload_ids() {
                    cells.push((cfg.clone(), t, id));
                }
            }
        }
        println!("\ntelemetry: sampling {} gradcomp cells...", cells.len());
        h.gradcomp_telemetry_batch(&cells);
        let rows: Vec<TelemetryRow> = h
            .telemetry_summaries()
            .into_iter()
            .map(|(config, technique, workload, summary)| TelemetryRow {
                config,
                technique,
                workload,
                summary,
            })
            .collect();
        fs::create_dir_all("experiments").ok();
        let path = "experiments/telemetry.json";
        match fs::write(path, serde_json::to_string_pretty(&rows).unwrap()) {
            Ok(()) => println!("telemetry summaries written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    if let Some(path) = chrome_trace {
        let trace =
            h.gradcomp_chrome_trace(&GpuConfig::rtx4090_sim(), Technique::Baseline, "3D-DR");
        match fs::write(&path, trace) {
            Ok(()) => println!("chrome trace (Baseline 3D-DR, 4090 model) written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }

    if run_all {
        fs::create_dir_all("experiments").ok();
        let path = "experiments/results.json";
        match fs::write(path, serde_json::to_string_pretty(&json).unwrap()) {
            Ok(()) => println!("\nraw data written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    // On stderr so stdout stays byte-comparable between cold and warm
    // store runs; CI reads this line to check a warm run renders nothing.
    if let Some(stats) = h.store_stats() {
        eprintln!(
            "store-summary frames_built {} hits {} misses {} puts {}",
            h.frames_built(),
            stats.hits,
            stats.misses,
            stats.puts
        );
    }
}

fn tab1() {
    println!("== Table 1: simulated GPU configurations ==");
    for cfg in [
        GpuConfig::rtx4090(),
        GpuConfig::rtx3060(),
        GpuConfig::rtx4090_sim(),
        GpuConfig::rtx3060_sim(),
    ] {
        println!(
            "{:<12} {:>4} SMs  {:>4} ROPs  {:>4.2} GHz  {} sub-cores/SM  (ROP:SM = {:.2})",
            cfg.name,
            cfg.num_sms,
            cfg.total_rops(),
            cfg.clock_ghz,
            cfg.subcores_per_sm,
            cfg.rop_to_sm_ratio()
        );
    }
}

fn print_fig4(rows: &[BreakdownRow]) {
    println!("\n== Fig. 4: training-time breakdown (baseline) ==");
    println!(
        "{:<8} {:<10} {:>9} {:>7} {:>9}",
        "workload", "gpu", "forward", "loss", "gradcomp"
    );
    for r in rows {
        println!(
            "{:<8} {:<10} {:>8.1}% {:>6.1}% {:>8.1}%",
            r.workload,
            r.gpu,
            100.0 * r.forward,
            100.0 * r.loss,
            100.0 * r.gradcomp
        );
    }
}

fn print_series(title: &str, series: &[Series]) {
    println!("\n== {title} ==");
    for s in series {
        print!("{:<28}", s.label);
        for (id, v) in &s.points {
            print!(" {id}={v:.2}x");
        }
        println!(
            "  | geomean {:.2}x, max {:.2}x",
            s.geo_mean(),
            s.max().map_or(0.0, |m| m.1)
        );
    }
}

fn print_stalls(title: &str, rows: &[StallRow]) {
    println!("\n== {title} ==");
    println!(
        "{:<8} {:<10} {:<10} {:>16} {:>10}",
        "workload", "gpu", "technique", "stalls/instr", "LSU share"
    );
    for r in rows {
        println!(
            "{:<8} {:<10} {:<10} {:>16.2} {:>9.1}%",
            r.workload,
            r.gpu,
            r.technique,
            r.stalls_per_instr,
            100.0 * r.lsu_fraction
        );
    }
}

fn print_fig22(rows: &[SwRow]) {
    println!("\n== Fig. 22: ARC-SW speedups (best threshold per workload) ==");
    println!(
        "{:<8} {:<10} {:<10} {:>10} {:>10}",
        "workload", "gpu", "config", "gradcomp", "end2end"
    );
    for r in rows {
        println!(
            "{:<8} {:<10} {:<10} {:>9.2}x {:>9.2}x",
            r.workload, r.gpu, r.best_config, r.gradcomp_speedup, r.e2e_speedup
        );
    }
}

fn print_fig23(rows: &[ThresholdRow]) {
    println!("\n== Fig. 23: balancing-threshold sensitivity (4090 model) ==");
    let mut by_workload: BTreeMap<&str, Vec<&ThresholdRow>> = BTreeMap::new();
    for r in rows {
        by_workload.entry(&r.workload).or_default().push(r);
    }
    for (id, rows) in by_workload {
        print!("{id:<8}");
        for r in rows {
            print!(" {}-{}={:.2}x", r.algorithm, r.threshold, r.speedup);
        }
        println!();
    }
}

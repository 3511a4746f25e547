//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host record, one line per metric, and as its last line
//! the JSON result. Exits 1 on a wrong read, 2 on bad arguments or a
//! failed set-up.

use std::path::Path;

use perfbench::analysis::{per_layer, write_spans};
use perfbench::load::Slice;
use perfbench::report::{Report, Samples};
use perfbench::workloads::{run, Round, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rustc: String,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut rustc = String::from("unknown");
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(val == "1"),
            "--rustc" => rustc = val,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        rustc,
    })
}

fn host_line(a: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "host workload={} seed={} seconds={} trace={} nproc={nproc} cpu=\"{cpu}\" kernel={kernel} rustc=\"{}\"",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        a.rustc
    )
}

fn median(mut v: Vec<f64>) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The end-to-end metrics over all untraced rounds. Latency figures
/// are medians over the rounds' slices of each slice's median; set-up
/// time and storage are medians over rounds.
fn end_to_end(rounds: &[Round]) -> (Report, Vec<String>) {
    let mut r = Report::default();
    let mut extra = Vec::new();
    let per_round =
        |f: &dyn Fn(&Round) -> Option<f64>| median(rounds.iter().filter_map(f).collect());
    let q = |pick: fn(&Round) -> &Samples, p: f64| {
        per_round(&|x: &Round| pick(x).clone().quantile_us(p))
    };
    let count = |pick: fn(&Round) -> &Samples| rounds.iter().map(|x| pick(x).len() as u64).sum();
    let (mut ops, mut failed) = (0u64, 0u64);
    for x in rounds {
        ops += x.tally.ops;
        failed += x.tally.failed;
    }
    let slices: Vec<&Slice> = rounds.iter().flat_map(|x| &x.tally.slices).collect();
    let over_slices =
        |f: fn(&Slice) -> Option<f64>| median(slices.iter().filter_map(|s| f(s)).collect());
    fn get(x: &Round) -> &Samples {
        &x.tally.get
    }
    fn put(x: &Round) -> &Samples {
        &x.tally.put
    }
    fn mov(x: &Round) -> &Samples {
        &x.tally.mov
    }
    r.add(
        "get_p50_us",
        "us",
        over_slices(|s| s.get_p50_us),
        count(get),
    );
    r.add(
        "put_p50_us",
        "us",
        over_slices(|s| s.put_p50_us),
        count(put),
    );
    r.add(
        "setup_s",
        "s",
        per_round(&|x: &Round| Some(x.setup.as_secs_f64())),
        rounds.len() as u64,
    );
    r.add(
        "stored_bytes_per_user_byte",
        "ratio",
        per_round(&|x: &Round| Some(x.storage.per_user_byte())),
        rounds.len() as u64,
    );
    let rss = rounds.iter().map(|x| x.rss_kib).max().unwrap_or(0);
    r.add(
        "peak_rss_mb",
        "MiB",
        (rss > 0).then(|| rss as f64 / 1024.0),
        rounds.len() as u64,
    );

    // Printed, not gated: throughput and the p99s spread too far
    // between runs on a shared 2-core host, the rest exist on one
    // workload only.
    let mut side = Report::default();
    side.add("ops_per_s", "ops/s", over_slices(Slice::ops_per_s), ops);
    side.add("get_p99_us", "us", q(get, 0.99), count(get));
    side.add("put_p99_us", "us", q(put, 0.99), count(put));
    if count(mov) > 0 {
        side.add("move_p50_us", "us", q(mov, 0.5), count(mov));
        side.add("move_p99_us", "us", q(mov, 0.99), count(mov));
    }
    let failovers: Vec<f64> = rounds
        .iter()
        .filter_map(|x| x.failover.map(|d| d.as_secs_f64()))
        .collect();
    if !failovers.is_empty() {
        side.add(
            "failover_s",
            "s",
            median(failovers.clone()),
            failovers.len() as u64,
        );
    }
    side.add(
        "failed_frac",
        "ratio",
        (ops > 0).then(|| failed as f64 / ops as f64),
        ops,
    );
    for m in &side.metrics {
        extra.push(match m.value {
            Some(v) => format!("{:<40} {:>14.4} {:<6} (n={})", m.name, v, m.unit, m.samples),
            None => format!(
                "{:<40} {:>14} {:<6} (n={}: too few samples)",
                m.name, "-", m.unit, m.samples
            ),
        });
    }
    (r, extra)
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    println!("{}", host_line(&args));
    let out = match run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            std::process::exit(2);
        }
    };
    let mut all: Vec<&Round> = out.rounds.iter().collect();
    if let Some((t, _)) = &out.traced {
        all.push(t);
    }
    let attempted: u64 = all.iter().map(|r| r.tally.ops).sum();
    let failed: u64 = all.iter().map(|r| r.tally.failed).sum();
    let wrong: u64 = all.iter().map(|r| r.wrong).sum();
    for (i, r) in all.iter().enumerate() {
        println!(
            "round {i}: setup {:.4} s, {} ops in {:.3} s, {} failed, {} wrong reads",
            r.setup.as_secs_f64(),
            r.tally.ops,
            r.tally.measured.as_secs_f64(),
            r.tally.failed,
            r.wrong
        );
        for s in &r.tally.slices {
            let f = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.3}"));
            println!(
                "slice {i}: {} ops in {:.4} s, get p50 {} us, put p50 {} us",
                s.ops,
                s.measured.as_secs_f64(),
                f(s.get_p50_us),
                f(s.put_p50_us)
            );
        }
        if let Some(w) = &r.first_wrong {
            println!("round {i}: first wrong read: {w}");
        }
    }
    let (e2e, extra) = end_to_end(&out.rounds);
    e2e.print("metric");
    for l in &extra {
        println!("metric {l}");
    }
    let report = match &out.traced {
        None => e2e,
        Some((t, recs)) => {
            let untraced = e2e.get("ops_per_s").unwrap_or(0.0);
            let (layers, lines) = per_layer(recs, &t.tally, &t.storage, untraced);
            for l in &lines {
                println!("trace {l}");
            }
            layers.print("layer");
            let dir = Path::new("perfbench").join("out");
            let file = dir.join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
            match std::fs::create_dir_all(&dir).and_then(|_| write_spans(&file, recs)) {
                Ok(n) => println!("trace {n} spans written to {}", file.display()),
                Err(e) => println!("trace spans not written: {e}"),
            }
            layers
        }
    };
    let correct = wrong == 0;
    println!("{}", report.result_line(correct, attempted.max(1), failed));
    if !correct {
        std::process::exit(1);
    }
}

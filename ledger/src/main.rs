//! `sharoes-ledger --workload <meta|data-wal|share-scan> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints the environment, every metric with its unit and the correctness
//! verdict, writes the same as a JSON ledger (and, traced, the spans) under
//! `.ledger_out/`, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

use sharoes_ledger::deploy::Env;
use sharoes_ledger::ledger::{
    crypto_micro, end_to_end, host, per_layer, per_layer_names, timings, Metric,
};
use sharoes_ledger::{run, trace, Opts, Workload};
use std::fmt::Write as _;
use std::path::Path;

fn usage(why: &str) -> ! {
    eprintln!("sharoes-ledger: {why}");
    eprintln!(
        "usage: sharoes-ledger --workload <meta|data-wal|share-scan> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts::new(Workload::Meta, 0);
    let mut workload = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).unwrap_or_else(|| usage(&format!("{} needs a value", args[i])));
        let num = || value.parse::<u64>().unwrap_or_else(|_| usage(&format!("bad {}", args[i])));
        match args[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => opts.seed = num(),
            "--seconds" => opts.seconds = num() as f64,
            "--trace" => opts.trace = num() != 0,
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    opts.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    opts
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!("{}: {{\"value\": {}, \"unit\": {}}}", json_str(n), json_num(*v), json_str(u))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let opts = parse_args();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("ledger/ has a parent");
    let env = Env::capture(root);
    let m = run(&opts);

    let e2e = end_to_end(&m);
    let (layers, absent): (Vec<Metric>, Vec<String>) = if opts.trace {
        let micro = crypto_micro(m.rsa_key.as_ref().expect("workloads keep an RSA key"));
        let (values, absent) = per_layer(&m, &micro);
        let metrics = per_layer_names()
            .into_iter()
            .map(|(n, u)| {
                let v = values.get(&n).copied().unwrap_or(0.0);
                (n, v, u)
            })
            .collect();
        (metrics, absent)
    } else {
        (Vec::new(), Vec::new())
    };
    let reported = if opts.trace { &layers } else { &e2e };
    let correct = m.failed() == 0 && reported.iter().all(|(_, v, _)| v.is_finite());

    let mut text = String::new();
    let _ = writeln!(
        text,
        "sharoes-ledger workload={} seed={} trace={}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let _ = writeln!(text, "  commit        {}", env.commit);
    let _ = writeln!(text, "  source_sha256 {}", env.source_sha256);
    let _ = writeln!(text, "  rustc         {}", env.rustc);
    let _ = writeln!(text, "  profile       {}", env.profile);
    let _ = writeln!(text, "  nproc         {}", env.nproc);
    let _ = writeln!(text, "  cpu           {}", env.cpu);
    for note in &m.notes {
        let _ = writeln!(text, "  note          {note}");
    }
    let _ = writeln!(
        text,
        "  ops           {} attempted, {} failed, {:.3} s timed, {} set-ups",
        m.attempted(),
        m.failed(),
        m.wall_s,
        m.setups.len()
    );
    for f in &m.failures {
        let _ = writeln!(text, "  FAILED        {f}");
    }
    for (n, v, u) in &e2e {
        let _ = writeln!(text, "  {n:<40} {v:>14.6} {u}");
    }
    // Untraced, the wall-clock op metrics are printed for reading only; the
    // traced run reports them in the ledger.
    let unbounded = if opts.trace { layers.clone() } else { [timings(&m), host(&m)].concat() };
    for (n, v, u) in &unbounded {
        let _ = writeln!(text, "  {n:<40} {v:>14.6} {u}");
    }
    if !absent.is_empty() {
        let _ = writeln!(text, "  absent (reported as 0): {}", absent.join(", "));
    }
    print!("{text}");
    let stem = format!("{}-seed{}-trace{}", opts.workload.name(), opts.seed, u8::from(opts.trace));
    let counts: Vec<String> =
        m.counts.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    let setups: Vec<String> = m
        .setups
        .iter()
        .map(|s| {
            format!(
                "{{\"keyring_s\": {}, \"sigpool_s\": {}, \"migrate_s\": {}, \"preload_s\": {}, \
                 \"mount_ms\": {}, \"total_s\": {}}}",
                json_num(s.keyring_s),
                json_num(s.sigpool_s),
                json_num(s.migrate_s),
                json_num(s.preload_s),
                json_num(s.mount_ms),
                json_num(s.total_s())
            )
        })
        .collect();
    let ledger = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"env\": {{\"commit\": {}, \
         \"source_sha256\": {}, \"rustc\": {}, \"profile\": {}, \"nproc\": {}, \"cpu\": {}}}, \
         \"attempted\": {}, \"failed\": {}, \"timed_s\": {}, \"notes\": [{}], \"absent\": [{}], \
         \"counts\": {{{}}}, \"setups\": [{}], \"end_to_end\": {}, \"per_layer\": {}}}\n",
        json_str(opts.workload.name()),
        opts.seed,
        opts.trace,
        json_str(&env.commit),
        json_str(&env.source_sha256),
        json_str(&env.rustc),
        json_str(env.profile),
        env.nproc,
        json_str(&env.cpu),
        m.attempted(),
        m.failed(),
        json_num(m.wall_s),
        m.notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(", "),
        absent.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(", "),
        counts.join(", "),
        setups.join(", "),
        metrics_json(&e2e),
        metrics_json(&layers),
    );
    if let Err(e) = std::fs::write(opts.out_dir.join(format!("{stem}.json")), ledger) {
        eprintln!("sharoes-ledger: could not write the ledger file: {e}");
    }
    if opts.trace {
        if let Err(e) =
            trace::write_jsonl(&opts.out_dir.join(format!("{stem}-spans.jsonl")), &m.spans)
        {
            eprintln!("sharoes-ledger: could not write the spans: {e}");
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.attempted(),
        m.failed(),
        metrics_json(reported)
    );
}

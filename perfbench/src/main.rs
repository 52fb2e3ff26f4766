//! Runs one benchmark workload and prints its result as the last line of
//! standard output.
//!
//! ```text
//! kcv-perfbench --workload <oneshot|serve-steady|serve-burst> --seed <n>
//!               --seconds <s> --trace <0|1>
//!               [--overhead-ref <value>] [--spans-out <path>]
//! kcv-perfbench --describe
//! ```
//!
//! `--trace 1` needs the `metrics` build; `--overhead-ref` is the untraced
//! run's value of the workload's reference metric, from which the traced
//! run computes `trace.overhead_frac`. Exit codes: 0 with a result, 2 for
//! bad arguments, 3 for an invalid run (no result is printed).

use std::process::ExitCode;

use kcv_perfbench::{complete_per_layer, describe, overhead_reference, run_workload, trace, Run};

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--describe") {
        print!("{}", describe());
        return ExitCode::SUCCESS;
    }
    let parsed = (|| -> Result<(String, Run, Option<f64>), String> {
        let workload = arg(&args, "--workload")
            .ok_or("missing --workload")?
            .to_string();
        let seed = arg(&args, "--seed")
            .ok_or("missing --seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = arg(&args, "--seconds")
            .ok_or("missing --seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        let traced = match arg(&args, "--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        };
        if traced && !kcv_obs::enabled() {
            return Err("--trace 1 needs the build with --features metrics".into());
        }
        let reference = match arg(&args, "--overhead-ref") {
            Some(v) => Some(v.parse().map_err(|e| format!("--overhead-ref: {e}"))?),
            None => None,
        };
        Ok((
            workload,
            Run {
                seed,
                seconds,
                traced,
            },
            reference,
        ))
    })();
    let (workload, run, reference) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("kcv-perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let mut out = match run_workload(&workload, &run, false) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("kcv-perfbench: {workload}: {e}");
            return ExitCode::from(3);
        }
    };

    let key = overhead_reference(&workload);
    out.overhead_reference = out.value(key).map(|v| (key, v));
    if run.traced {
        let traced_value = out.value(key).unwrap_or(f64::NAN);
        let overhead = match reference {
            Some(untraced) if key == "throughput_per_s" => untraced / traced_value - 1.0,
            Some(untraced) => traced_value / untraced - 1.0,
            None => f64::NAN,
        };
        out.layer("trace.overhead_frac", "ratio", overhead);
        complete_per_layer(&mut out);
        if let Err(e) = trace::check_nesting(&out.spans) {
            out.check(false, || format!("spans do not nest: {e}"));
        }
        if workload == "oneshot" {
            let coverage = out.value("trace.coverage_frac").unwrap_or(0.0);
            out.check(coverage >= 0.9, || {
                format!("layer spans cover {coverage:.3} of oneshot requests (< 0.9)")
            });
        }
        if let Some(path) = arg(&args, "--spans-out") {
            if let Err(e) = write_spans(path, &out.spans) {
                eprintln!("kcv-perfbench: cannot write spans to {path}: {e}");
                return ExitCode::from(3);
            }
        }
    }
    println!("{}", out.info_json());
    println!("{}", out.result_json(run.traced));
    ExitCode::SUCCESS
}

fn write_spans(path: &str, spans: &[trace::Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    trace::write_jsonl(&mut file, spans, &trace::self_times(spans))?;
    file.flush()
}

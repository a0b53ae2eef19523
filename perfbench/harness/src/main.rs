//! In-process harness of the `perfbench` benchmark (see `../README.md`).
//!
//! ```text
//! perfbench-harness codes --dir DIR [--setup-reps R] [--resample 1]
//! perfbench-harness fuzz --programs I,J,... [--setup-reps R] [--setup-every N] [--passes P] [--trace FILE]
//! perfbench-harness suite --dir DIR --jobs CODE:LEVEL,... --trace FILE
//! perfbench-harness serve --requests FILE --trace FILE
//! ```
//!
//! `codes` writes the twelve benchmark codes as `DIR/<name>.c`. A set-up
//! (`codes`, or the program generation of `fuzz`) is timed over `--setup-reps`
//! set-ups in a row; `codes --resample 1` times it again for every line
//! read on standard input, and `fuzz` before every `--setup-every`-th job
//! of every pass. Every
//! command prints one JSON document: per-job rows (`codes` and `fuzz` add
//! their set-up times, `serve` the failed requests and the `memory` and
//! `loops` sections of the timed reports), and with `--trace` the
//! per-layer metrics from the spans, which are written to the trace file.

mod fuzz;
mod serve;
mod spans;
mod suite;
mod tally;

use psa_core::json::Json;
use psa_rsg::Level;
use spans::Spans;
use std::collections::HashMap;
use std::io::BufRead;
use std::process::ExitCode;
use std::time::Instant;
use tally::Tally;

/// The twelve codes at `psa bench-code`'s sizes: the four Table 1 codes and
/// the eight Olden codes.
fn codes() -> Vec<(&'static str, String)> {
    let s = psa_codes::Sizes::default();
    let mut out = vec![
        ("matvec", psa_codes::sparse_matvec(s)),
        ("matmat", psa_codes::sparse_matmat(s)),
        ("lu", psa_codes::sparse_lu(s)),
        ("barnes-hut", psa_codes::barnes_hut(s)),
    ];
    out.extend(psa_codes::olden::olden_codes(s));
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench-harness: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` pairs after the command name.
fn flags(args: &[String]) -> Result<HashMap<&str, &str>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(name, value.as_str());
    }
    Ok(out)
}

fn flag<'a>(f: &HashMap<&str, &'a str>, name: &str) -> Result<&'a str, String> {
    f.get(name)
        .copied()
        .ok_or_else(|| format!("missing --{name}"))
}

fn number(f: &HashMap<&str, &str>, name: &str) -> Result<u64, String> {
    flag(f, name)?
        .parse()
        .map_err(|_| format!("--{name} is not a number"))
}

/// A positive number flag that may be left out.
fn count_or(f: &HashMap<&str, &str>, name: &str, default: u64) -> Result<u64, String> {
    if f.contains_key(name) {
        Ok(number(f, name)?.max(1))
    } else {
        Ok(default)
    }
}

/// Run a set-up `reps` times in a row: its last output and the time per
/// set-up. One set-up lasts about a millisecond, too short to time
/// steadily on its own.
fn time_setup<T>(
    reps: u64,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let t = Instant::now();
    let mut last = setup()?;
    for _ in 1..reps {
        last = setup()?;
    }
    Ok((last, t.elapsed().as_secs_f64() / reps as f64))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args.split_first().ok_or("missing command")?;
    let f = flags(rest)?;
    let trace = f.get("trace").copied();
    let mut spans = Spans::new(trace.is_some());
    let mut tally = Tally::default();
    let mut out = Json::obj();
    let jobs = match cmd.as_str() {
        "codes" => codes_cmd(&f, &mut out)?,
        "fuzz" => fuzz_cmd(&f, &mut spans, &mut tally, &mut out)?,
        "suite" => suite_cmd(&f, &mut spans, &mut tally)?,
        "serve" => serve_cmd(&f, &mut spans, &mut tally, &mut out)?,
        other => return Err(format!("unknown command `{other}`")),
    };
    out.set("jobs", jobs);
    if let Some(path) = trace {
        out.set("metrics", tally.metrics(&spans.self_ns()));
        std::fs::write(path, spans.to_json().compact()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", out.compact());
    Ok(())
}

/// `codes`: write the twelve codes to `--dir`; this is `suite-cold`'s
/// set-up. With `--resample 1` the command then times the set-up again for
/// every line read on standard input, answering each with the sample, until
/// the input ends. `suite-cold` samples the set-up before every job from
/// this one process because a fresh process runs the set-up up to twice as
/// slowly, and unevenly, for its first few hundred milliseconds.
fn codes_cmd(f: &HashMap<&str, &str>, out: &mut Json) -> Result<Json, String> {
    let dir = flag(f, "dir")?;
    let reps = count_or(f, "setup-reps", 1)?;
    let write = || {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        for (name, src) in codes() {
            let path = format!("{dir}/{name}.c");
            std::fs::write(&path, src).map_err(|e| format!("{path}: {e}"))?;
        }
        Ok(())
    };
    let mut setup = vec![Json::Float(time_setup(reps, &write)?.1)];
    if f.get("resample") == Some(&"1") {
        for line in std::io::stdin().lock().lines() {
            line.map_err(|e| format!("standard input: {e}"))?;
            let ((), s) = time_setup(reps, &write)?;
            setup.push(Json::Float(s));
            println!("{s}");
        }
    }
    out.set("setup_s", Json::Arr(setup));
    Ok(Json::Arr(Vec::new()))
}

/// `fuzz`: generate the run's programs, given as indexes into the program
/// pool (set-up), then run one job per program, `--passes` times over;
/// each row carries the job's time in every pass. The set-up is timed
/// again between jobs, so that its samples see the host as the jobs do.
fn fuzz_cmd(
    f: &HashMap<&str, &str>,
    spans: &mut Spans,
    tally: &mut Tally,
    out: &mut Json,
) -> Result<Json, String> {
    let programs = flag(f, "programs")?
        .split(',')
        .map(|i| i.parse().map_err(|_| format!("bad program index `{i}`")))
        .collect::<Result<Vec<u64>, _>>()?;
    let generate = || -> Result<Vec<(u64, String)>, String> {
        Ok(programs
            .iter()
            .map(|&i| {
                let seed = fuzz::POOL_SEED + i;
                (seed, fuzz::generate(seed))
            })
            .collect())
    };
    let reps = count_or(f, "setup-reps", 1)?;
    let every = count_or(f, "setup-every", u64::MAX)?;
    let (sources, setup) = time_setup(reps, &generate)?;
    let mut setup = vec![Json::Float(setup)];
    let passes = count_or(f, "passes", 1)?;
    let mut first = Vec::new();
    let mut ms = vec![Vec::new(); sources.len()];
    for pass in 0..passes {
        // Only the first pass is traced and counted; later passes must
        // reach the same outcomes.
        let (mut quiet, mut discarded) = (Spans::new(false), Tally::default());
        let (spans, tally) = if pass == 0 {
            (&mut *spans, &mut *tally)
        } else {
            (&mut quiet, &mut discarded)
        };
        for (k, (seed, src)) in sources.iter().enumerate() {
            if k > 0 && (k as u64).is_multiple_of(every) {
                setup.push(Json::Float(time_setup(reps, &generate)?.1));
            }
            let t = Instant::now();
            let outcome = spans.span("job", |s| fuzz::job(*seed, src, s, tally));
            ms[k].push(Json::Float(t.elapsed().as_secs_f64() * 1e3));
            if pass == 0 {
                first.push(outcome);
            } else if outcome != first[k] {
                return Err(format!("program {seed}: outcome differs between passes"));
            }
        }
    }
    out.set("setup_s", Json::Arr(setup));
    Ok(first
        .iter()
        .zip(ms)
        .map(|(outcome, ms)| {
            let mut row = fuzz::outcome_json(outcome);
            row.set("ms", Json::Arr(ms));
            row
        })
        .collect())
}

fn level(name: &str) -> Result<Level, String> {
    match name {
        "L1" => Ok(Level::L1),
        "L2" => Ok(Level::L2),
        "L3" => Ok(Level::L3),
        other => Err(format!("unknown level `{other}`")),
    }
}

/// `suite`: the `suite-cold` jobs in the given order, in-process.
fn suite_cmd(
    f: &HashMap<&str, &str>,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Json, String> {
    let dir = flag(f, "dir")?;
    let mut rows = Vec::new();
    for (k, job) in flag(f, "jobs")?.split(',').enumerate() {
        let (name, lvl) = job
            .split_once(':')
            .ok_or_else(|| format!("job `{job}` is not CODE:LEVEL"))?;
        let src = read(&format!("{dir}/{name}.c"))?;
        let lvl = level(lvl)?;
        let t = Instant::now();
        let outcome = spans.span("job", |s| suite::job(k as u64, &src, lvl, s, tally));
        let mut row = Json::obj();
        row.set("code", name);
        row.set("level", lvl.to_string());
        row.set("ms", t.elapsed().as_secs_f64() * 1e3);
        row.set("stopped", outcome.stopped);
        row.set("failure", outcome.failure.map_or(Json::Null, Json::Str));
        rows.push(row);
    }
    Ok(Json::Arr(rows))
}

/// `serve`: the request lines of a `serve-edit` run against an in-process
/// server.
fn serve_cmd(
    f: &HashMap<&str, &str>,
    spans: &mut Spans,
    tally: &mut Tally,
    out: &mut Json,
) -> Result<Json, String> {
    let requests = read(flag(f, "requests")?)?
        .lines()
        .map(|l| Json::parse(l).map_err(|e| format!("bad request line: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let outcome = serve::run(&requests, spans, tally);
    out.set(
        "failures",
        outcome
            .failures
            .iter()
            .map(String::as_str)
            .collect::<Json>(),
    );
    out.set("reports", Json::Arr(outcome.sections));
    Ok(outcome
        .request_ns
        .iter()
        .map(|&ns| Json::Float(ns as f64 / 1e6))
        .collect())
}

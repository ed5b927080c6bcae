//! The command-line layer every harness binary shares: an argument
//! cursor with one usage-error path, and the artifact writer behind
//! `--json`, `--metrics`, `--trace`, `--series`, `--series-window` and
//! `--bench-json`.
//!
//! Exit status follows `sglint`: 0 ok, 1 a failed check or an I/O
//! error, 2 a usage error. `-h`/`--help` prints the usage on stdout and
//! exits 0.

use std::fmt::{Debug, Display};
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::ops::RangeBounds;
use std::process;
use std::str::FromStr;

use composite::{Json, SeriesSnapshot, SimTime, TraceShard};

/// Appended to every `--help`.
const EXIT_STATUS: &str = "exit status: 0 ok, 1 failed check or I/O error, 2 usage error";

/// Print `{bin}: {message}` and the usage on stderr, then exit 2.
pub fn usage_error(bin: &str, usage: &str, message: impl Display) -> ! {
    eprintln!("{bin}: {message}");
    eprintln!("{usage}");
    process::exit(2)
}

/// Print the usage and the exit-status convention on stdout, then
/// exit 0.
pub fn help(usage: &str) -> ! {
    println!("{usage}\n\n{EXIT_STATUS}");
    process::exit(0)
}

/// Print `error: {message}` on stderr, then exit 1: a failed check or
/// an I/O error.
pub fn exit_error(message: impl Display) -> ! {
    eprintln!("error: {message}");
    process::exit(1)
}

/// Print `error: cannot write {path}: {err}` on stderr, then exit 1.
pub fn write_failed(path: &str, err: impl Display) -> ! {
    exit_error(format_args!("cannot write {path}: {err}"))
}

/// A cursor over a binary's arguments. Every malformed argument ends in
/// [`usage_error`]; no parse panics.
#[derive(Debug)]
pub struct Cli {
    bin: &'static str,
    usage: &'static str,
    args: std::vec::IntoIter<String>,
    /// The flag [`Cli::next_flag`] returned last; values and error
    /// messages refer to it.
    flag: String,
}

impl Cli {
    /// A cursor over the process arguments.
    #[must_use]
    pub fn new(bin: &'static str, usage: &'static str) -> Self {
        Self::from_args(bin, usage, std::env::args().skip(1).collect())
    }

    /// A cursor over `args` (a subcommand's flags, say).
    #[must_use]
    pub fn from_args(bin: &'static str, usage: &'static str, args: Vec<String>) -> Self {
        Self {
            bin,
            usage,
            args: args.into_iter(),
            flag: String::new(),
        }
    }

    /// The next flag, or `None` once the arguments are used up.
    /// `-h`/`--help` prints the usage and exits 0.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.args.next()?;
        if flag == "-h" || flag == "--help" {
            help(self.usage);
        }
        self.flag.clone_from(&flag);
        Some(flag)
    }

    /// The current flag's value, parsed with [`FromStr`].
    pub fn value<T: FromStr>(&mut self) -> T
    where
        T::Err: Display,
    {
        self.parse_with(str::parse)
    }

    /// The current flag's value, parsed with [`FromStr`] and required to
    /// lie in `range`.
    pub fn value_in<T, R>(&mut self, range: R) -> T
    where
        T: FromStr + PartialOrd,
        T::Err: Display,
        R: RangeBounds<T> + Debug,
    {
        self.parse_with(|v| match v.parse::<T>() {
            Ok(x) if range.contains(&x) => Ok(x),
            Ok(_) => Err(format!("must be in {range:?}")),
            Err(e) => Err(e.to_string()),
        })
    }

    /// The current flag's value, parsed by `parse`.
    pub fn parse_with<T, E: Display>(&mut self, parse: impl FnOnce(&str) -> Result<T, E>) -> T {
        let Some(raw) = self.args.next() else {
            self.fail(format_args!("{} needs a value", self.flag))
        };
        parse(&raw).unwrap_or_else(|e| self.fail(format_args!("{} {raw:?}: {e}", self.flag)))
    }

    /// Reject the current flag as unknown.
    pub fn unknown(&self) -> ! {
        self.fail(format_args!("unknown argument {:?}", self.flag))
    }

    /// A usage error with this binary's name and usage.
    pub fn fail(&self, message: impl Display) -> ! {
        usage_error(self.bin, self.usage, message)
    }
}

/// The artifact flags a harness accepts, and the writers behind them.
///
/// Each writer takes a closure that builds the artifact, so nothing is
/// rendered unless its flag was given, and prints the same
/// `… written to PATH` line on success. A write error ends in
/// [`write_failed`].
#[derive(Debug, Default)]
pub struct Outputs {
    json: Option<String>,
    metrics: Option<String>,
    trace: Option<String>,
    series: Option<String>,
    series_window: SimTime,
    bench_json: Option<String>,
}

impl Outputs {
    /// No artifacts yet; `default_window` is the `--series` window width
    /// unless `--series-window` overrides it.
    #[must_use]
    pub fn new(default_window: SimTime) -> Self {
        Self {
            series_window: default_window,
            ..Self::default()
        }
    }

    /// Take the value of `cli`'s current flag, one of the six artifact
    /// flags.
    pub fn take(&mut self, cli: &mut Cli) {
        let slot = match cli.flag.as_str() {
            "--json" => &mut self.json,
            "--metrics" => &mut self.metrics,
            "--trace" => &mut self.trace,
            "--series" => &mut self.series,
            "--bench-json" => &mut self.bench_json,
            // A zero window would silently turn `--series` off.
            "--series-window" => {
                self.series_window = SimTime(cli.value_in(1..));
                return;
            }
            _ => cli.unknown(),
        };
        *slot = Some(cli.value());
    }

    /// Create (truncate) every requested file, the trace's
    /// `PATH.chrome.json` included, so an unwritable path fails before
    /// the run rather than after it.
    pub fn create(&self) {
        let chrome = self.trace.as_deref().map(chrome_path);
        let paths = [
            &self.json,
            &self.metrics,
            &self.trace,
            &chrome,
            &self.series,
            &self.bench_json,
        ];
        for path in paths.into_iter().flatten() {
            if let Err(e) = File::create(path) {
                write_failed(path, e);
            }
        }
    }

    /// `--trace` was given: record the flight recorder.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// `--series` was given: record windowed telemetry.
    #[must_use]
    pub fn series_on(&self) -> bool {
        self.series.is_some()
    }

    /// The telemetry window: the `--series-window` width (or the
    /// default) with `--series`, [`SimTime::ZERO`] (telemetry off)
    /// without it.
    #[must_use]
    pub fn series_window(&self) -> SimTime {
        if self.series_on() {
            self.series_window
        } else {
            SimTime::ZERO
        }
    }

    /// Write the `--json` rows as one pretty-printed array.
    pub fn json(&self, rows: impl FnOnce() -> Vec<Json>) {
        write_text(&self.json, "rows", || Json::Array(rows()).to_pretty());
    }

    /// Write the `--metrics` JSON-lines.
    pub fn metrics(&self, lines: impl FnOnce() -> String) {
        write_text(&self.metrics, "metrics", lines);
    }

    /// Write flight-recorder shards to the `--trace` path as the
    /// JSON-lines format `sgtrace` consumes, plus a Chrome `trace_event`
    /// rendering at `PATH.chrome.json` (load in Perfetto /
    /// `chrome://tracing`). Both stream to disk event by event, never
    /// held whole in memory.
    pub fn trace(&self, shards: impl FnOnce() -> Vec<TraceShard>) {
        if let Some(path) = &self.trace {
            let shards = shards();
            write(path, |w| composite::write_jsonl(&shards, w));
            let chrome = chrome_path(path);
            write(&chrome, |w| composite::write_chrome(&shards, w));
            println!("trace written to {path} (+ {chrome} for Perfetto)");
        }
    }

    /// Write windowed-telemetry sections to the `--series` path via
    /// [`series_to_jsonl`](crate::series_to_jsonl).
    pub fn series<'a>(&self, sections: impl FnOnce() -> Vec<(String, &'a SeriesSnapshot)>) {
        write_text(&self.series, "series", || {
            crate::series_to_jsonl(self.series_window.0, &sections())
        });
    }

    /// Write the `--bench-json` document, pretty-printed.
    pub fn bench_json(&self, doc: impl FnOnce() -> Json) {
        write_text(&self.bench_json, "bench json", || doc().to_pretty());
    }
}

/// Write `text` to `path`, if requested, and say so on stdout.
fn write_text(path: &Option<String>, what: &str, text: impl FnOnce() -> String) {
    if let Some(path) = path {
        write(path, |w| w.write_all(text().as_bytes()));
        println!("{what} written to {path}");
    }
}

fn chrome_path(trace: &str) -> String {
    format!("{trace}.chrome.json")
}

/// Stream `render` into a fresh `path`; any error ends in
/// [`write_failed`].
fn write(path: &str, render: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>) {
    let result = File::create(path).and_then(|file| {
        let mut out = BufWriter::new(file);
        render(&mut out)?;
        out.flush()
    });
    if let Err(e) = result {
        write_failed(path, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_take_artifact_flags_and_gate_the_series_window() {
        let args = ["--trace", "t.jsonl", "--series-window", "5"];
        let mut cli = Cli::from_args("test", "usage", args.map(String::from).to_vec());
        let mut out = Outputs::new(SimTime(1));
        while cli.next_flag().is_some() {
            out.take(&mut cli);
        }
        assert!(out.tracing());
        // The window applies only with --series.
        assert_eq!(out.series_window(), SimTime::ZERO);
        out.series = Some("s.jsonl".to_owned());
        assert_eq!(out.series_window(), SimTime(5));
    }
}

//! Table, CSV, and JSON output for the harness.
//!
//! The JSON side is hand-rolled (the workspace deliberately carries no
//! serde): [`BenchRecord`] is the one schema every machine-readable
//! result uses, written as `BENCH_<experiment>.json` next to the CSVs
//! and read back by the `bench-smoke` CI gate.

use crate::HarnessConfig;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A simple aligned-column table printed to stdout and mirrored to CSV.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout and write `<out_dir>/<file>.csv`.
    pub fn emit(&self, out_dir: &str, file: &str) {
        print!("{}", self.render());
        if let Err(e) = self.write_csv(out_dir, file) {
            eprintln!("warning: could not write CSV {file}: {e}");
        }
    }

    fn write_csv(&self, out_dir: &str, file: &str) -> std::io::Result<()> {
        fs::create_dir_all(out_dir)?;
        let path = Path::new(out_dir).join(format!("{file}.csv"));
        let mut f = fs::File::create(path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(())
    }
}

/// One machine-readable measurement: the schema behind every
/// `BENCH_<experiment>.json` file.
///
/// `params` identifies the configuration cell (sizes, seeds, knob
/// settings); `counts` carries the scheduling-independent atomic-op
/// telemetry ([`gpu_sim::metrics::MetricsSnapshot`]) that the `bench-smoke` gate
/// compares, because wall-clock on shared CI runners is noise but
/// deterministic-schedule atomic counts are exact.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Experiment name (matches the file's `BENCH_<experiment>` stem).
    pub experiment: String,
    /// Allocator under test (roster display name).
    pub allocator: String,
    /// Configuration-cell parameters, in a stable order.
    pub params: Vec<(String, String)>,
    /// Median wall time of the measured kernel, milliseconds. NaN is
    /// written as the explicit string `"untimed"`; a *missing* or `null`
    /// `median_ms` is a writer bug [`record_from_json`] refuses.
    pub median_ms: f64,
    /// Atomic-op and telemetry counters, in a stable order.
    pub counts: Vec<(String, u64)>,
}

impl BenchRecord {
    /// An untimed record with no params or counts: the start of every
    /// record the harness builds. Params and counts keep the order the
    /// builder calls add them in — that order is part of [`Self::key`]
    /// and of the rendered JSON.
    pub fn new(experiment: &str, allocator: &str) -> Self {
        BenchRecord {
            experiment: experiment.to_string(),
            allocator: allocator.to_string(),
            params: Vec::new(),
            median_ms: f64::NAN,
            counts: Vec::new(),
        }
    }

    /// Append the `case` param (by convention a record's first).
    pub fn case(self, case: &str) -> Self {
        self.param("case", case)
    }

    /// Append one configuration-cell parameter.
    pub fn param(mut self, key: &str, value: impl ToString) -> Self {
        self.params.push((key.to_string(), value.to_string()));
        self
    }

    /// Append one counter.
    pub fn count(mut self, key: &str, value: u64) -> Self {
        self.counts.push((key.to_string(), value));
        self
    }

    /// Set the wall time in milliseconds.
    pub fn ms(mut self, median_ms: f64) -> Self {
        self.median_ms = median_ms;
        self
    }

    /// The counter named `key`, if the record carries it.
    pub fn get_count(&self, key: &str) -> Option<u64> {
        self.counts.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// The parameter named `key`, if the record carries it.
    pub fn get_param(&self, key: &str) -> Option<&str> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The key the smoke gate names a differing record by: allocator plus
    /// the rendered parameter list.
    pub fn key(&self) -> String {
        let params: Vec<String> = self.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{}[{}]", self.allocator, params.join(","))
    }
}

/// Escape a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render records as the `BENCH_<experiment>.json` document.
pub fn render_bench_json(experiment: &str, records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"gallatin-bench-v1\",\n");
    out.push_str(&format!("  \"experiment\": \"{}\",\n", json_escape(experiment)));
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"experiment\": \"{}\",\n", json_escape(&r.experiment)));
        out.push_str(&format!("      \"allocator\": \"{}\",\n", json_escape(&r.allocator)));
        out.push_str("      \"params\": {");
        let params: Vec<String> = r
            .params
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
            .collect();
        out.push_str(&params.join(", "));
        out.push_str("},\n");
        if r.median_ms.is_finite() {
            out.push_str(&format!("      \"median_ms\": {:.6},\n", r.median_ms));
        } else {
            out.push_str("      \"median_ms\": \"untimed\",\n");
        }
        out.push_str("      \"counts\": {");
        let counts: Vec<String> =
            r.counts.iter().map(|(k, v)| format!("\"{}\": {}", json_escape(k), v)).collect();
        out.push_str(&counts.join(", "));
        out.push_str("}\n");
        out.push_str(if i + 1 == records.len() { "    }\n" } else { "    },\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write `<out_dir>/BENCH_<experiment>.json`; returns the path written.
pub fn write_bench_json(
    out_dir: &str,
    experiment: &str,
    records: &[BenchRecord],
) -> std::io::Result<PathBuf> {
    fs::create_dir_all(out_dir)?;
    let path = Path::new(out_dir).join(format!("BENCH_{experiment}.json"));
    fs::write(&path, render_bench_json(experiment, records))?;
    Ok(path)
}

/// Write `BENCH_<experiment>.json` under the run's output directory and
/// report the path; a failed write warns on stderr and returns `false`,
/// which the gating experiments fold into their verdict.
pub fn emit_bench_json(cfg: &HarnessConfig, experiment: &str, records: &[BenchRecord]) -> bool {
    match write_bench_json(&cfg.out_dir, experiment, records) {
        Ok(path) => {
            println!("wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("warning: could not write BENCH_{experiment}.json: {e}");
            false
        }
    }
}

/// Print `records` as a table, write it as `<csv>.csv`, and write
/// `BENCH_<experiment>.json`; returns [`emit_bench_json`]'s verdict. The
/// table has one row per record and one column per key of `columns`, the
/// CSV header: comma-separated keys, each `allocator` or a param or count
/// of the record by name, `-` where the record has none.
pub fn emit_records(
    cfg: &HarnessConfig,
    experiment: &str,
    title: impl Into<String>,
    csv: &str,
    columns: &str,
    records: &[BenchRecord],
) -> bool {
    records_table(title, columns, records).emit(&cfg.out_dir, csv);
    emit_bench_json(cfg, experiment, records)
}

/// The table [`emit_records`] prints.
fn records_table(title: impl Into<String>, columns: &str, records: &[BenchRecord]) -> Table {
    let columns: Vec<&str> = columns.split(',').collect();
    let mut tab = Table::new(title, &columns);
    for r in records {
        let cell = |key: &str| match key {
            "allocator" => r.allocator.clone(),
            _ => (r.get_param(key).map(str::to_string))
                .or_else(|| r.get_count(key).map(|v| v.to_string()))
                .unwrap_or_else(|| "-".to_string()),
        };
        tab.row(columns.iter().map(|k| cell(k)).collect());
    }
    tab
}

/// Decode one record object (an element of a `"records"` array) into a
/// [`BenchRecord`]. A `median_ms` is a number or the `"untimed"` marker
/// (read back as NaN) — the only way to spell "deliberately not a
/// timing"; `null` or an absent key is an error, not a silent NaN.
pub fn record_from_json(r: &json::Value) -> Result<BenchRecord, String> {
    let s = |k: &str| {
        r.get(k)
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("record missing string \"{k}\""))
    };
    let pairs = |k: &str| {
        r.get(k)
            .and_then(json::Value::as_object)
            .ok_or_else(|| format!("record missing object \"{k}\""))
    };
    let median_ms = match r.get("median_ms") {
        Some(json::Value::Num(n)) => *n,
        Some(json::Value::Str(m)) if m == "untimed" => f64::NAN,
        other => return Err(format!("median_ms is {other:?} — time it or mark it \"untimed\"")),
    };
    let mut rec = BenchRecord::new(s("experiment")?, s("allocator")?).ms(median_ms);
    for (k, v) in pairs("params")? {
        rec = rec.param(k, v.as_str().ok_or_else(|| format!("param {k} not a string"))?);
    }
    for (k, v) in pairs("counts")? {
        rec = rec.count(k, v.as_f64().ok_or_else(|| format!("count {k} not a number"))? as u64);
    }
    Ok(rec)
}

/// Read a `BENCH_<experiment>.json` file back into records.
pub fn read_bench_json(path: &Path) -> Result<Vec<BenchRecord>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_bench_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Decode a `BENCH_<experiment>.json` document into records.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    let doc = json::parse(text)?;
    let records =
        doc.get("records").and_then(json::Value::as_array).ok_or("no \"records\" array")?;
    let decode = |(i, r)| record_from_json(r).map_err(|e| format!("record {i}: {e}"));
    records.iter().enumerate().map(decode).collect()
}

/// A minimal JSON parser — just enough to read the documents
/// [`render_bench_json`] writes (objects, arrays, strings, numbers,
/// `true`/`false`/`null`). No dependency on external crates by design.
pub mod json {
    /// A parsed JSON value. Object keys keep insertion order.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number (parsed as f64; bench counts fit exactly).
        Num(f64),
        /// A string literal.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, keys in document order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Object member lookup.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The string payload, if a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric payload, if a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The element list, if an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }

        /// The member list, if an object.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(m) => Some(m),
                _ => None,
            }
        }
    }

    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {pos}", c as char))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Value::Null),
            Some(_) => parse_number(b, pos),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {pos}")),
                    }
                    *pos += 1;
                }
                _ => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let start = *pos;
                    while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                        *pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&b[start..*pos])
                            .map_err(|_| format!("bad utf8 at byte {start}"))?,
                    );
                }
            }
        }
        Err("unterminated string".to_string())
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut out = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut out = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            expect(b, pos, b':')?;
            out.push((key, parse_value(b, pos)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }
}

/// The telemetry counters a [`BenchRecord`] carries, in a stable order,
/// as deltas between two snapshots of the same [`gpu_sim::Metrics`]
/// (e.g. around one measured size in a sweep).
pub fn counts_delta(
    before: &gpu_sim::metrics::MetricsSnapshot,
    after: &gpu_sim::metrics::MetricsSnapshot,
) -> Vec<(String, u64)> {
    let delta = |name: &str, a: u64, b: u64| (name.to_string(), a.saturating_sub(b));
    vec![
        delta("atomic_rmw", after.atomic_rmw, before.atomic_rmw),
        delta("cas_attempts", after.cas_attempts, before.cas_attempts),
        delta("cas_failures", after.cas_failures, before.cas_failures),
        delta("lock_acquires", after.lock_acquires, before.lock_acquires),
        delta("coalesced_requests", after.coalesced_requests, before.coalesced_requests),
        delta("mallocs", after.mallocs, before.mallocs),
        delta("frees", after.frees, before.frees),
        delta("failed_mallocs", after.failed_mallocs, before.failed_mallocs),
    ]
}

/// Format milliseconds with sensible precision.
pub fn fmt_ms(ms: f64) -> String {
    if ms.is_nan() {
        "n/a".to_string()
    } else if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.2}")
    } else {
        format!("{ms:.4}")
    }
}

/// Format a ratio/percentage.
pub fn fmt_pct(x: f64) -> String {
    if x.is_nan() {
        "n/a".to_string()
    } else {
        format!("{:.1}%", 100.0 * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("longer"));
        // Columns aligned: both rows end at the same width.
        let lines: Vec<&str> = s.lines().filter(|l| l.contains('1') || l.contains("2.5")).collect();
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn csv_written() {
        let dir = std::env::temp_dir().join("gallatin-bench-test");
        let dir = dir.to_str().unwrap();
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.write_csv(dir, "unit").unwrap();
        let content = std::fs::read_to_string(format!("{dir}/unit.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn records_render_by_key_in_the_callers_column_order() {
        let recs = [
            BenchRecord::new("unit", "Gallatin").case("a").param("size", 16).count("spills", 3),
            BenchRecord::new("unit", "GallatinPool(2)").case("b").count("requests", 9),
        ];
        // A count first and the allocator between params: the caller's order.
        let tab = records_table("unit", "spills,allocator,case,size,requests", &recs);
        let dir =
            std::env::temp_dir().join(format!("gallatin-records-test-{}", std::process::id()));
        tab.write_csv(dir.to_str().unwrap(), "unit").unwrap();
        let csv = std::fs::read_to_string(dir.join("unit.csv")).unwrap();
        assert_eq!(
            csv,
            "spills,allocator,case,size,requests\n3,Gallatin,a,16,-\n-,GallatinPool(2),b,-,9\n"
        );
        // The printed header and rows are the CSV's lines, cell for cell.
        let text = tab.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], "== unit ==");
        assert!(lines[3].chars().all(|c| c == '-'), "{text}");
        let printed: Vec<String> = [&lines[2..3], &lines[4..]]
            .concat()
            .iter()
            .map(|l| l.split_whitespace().collect::<Vec<_>>().join(","))
            .collect();
        assert_eq!(printed, csv.lines().collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_json_round_trips() {
        let records = vec![
            BenchRecord::new("ablation", "Gallatin")
                .case("sweep")
                .param("seeds", 8)
                .ms(1.5)
                .count("cas_attempts", 1234)
                .count("atomic_rmw", 56),
            // Untimed by default: rendered as "untimed", read back as NaN.
            BenchRecord::new("ablation", "Gallatin").case("group \"quoted\""),
        ];
        // Builder and readers round-trip: call order is field order.
        assert_eq!(
            records[0].params,
            [("case".into(), "sweep".into()), ("seeds".into(), "8".into())]
        );
        assert_eq!(records[0].counts, [("cas_attempts".into(), 1234), ("atomic_rmw".into(), 56)]);
        assert_eq!(records[0].get_param("seeds"), Some("8"));
        assert_eq!(records[0].get_count("atomic_rmw"), Some(56));
        assert_eq!((records[0].get_param("size"), records[0].get_count("spills")), (None, None));
        assert!(records[1].counts.is_empty() && records[1].median_ms.is_nan());
        let dir = std::env::temp_dir().join("gallatin-bench-json-test");
        let path = write_bench_json(dir.to_str().unwrap(), "ablation", &records).unwrap();
        assert!(path.ends_with("BENCH_ablation.json"));
        let back = read_bench_json(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], records[0]);
        assert_eq!(back[1].params[0].1, "group \"quoted\"");
        assert!(back[1].median_ms.is_nan());
        assert_eq!(back[0].key(), "Gallatin[case=sweep,seeds=8]");
        // The untimed row is spelled with the explicit marker on disk.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"median_ms\": \"untimed\""));
        assert!(!text.contains("\"median_ms\": null"));
    }

    #[test]
    fn json_parser_handles_the_grammar() {
        use super::json::{parse, Value};
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("{\"a\"").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ms(123.4), "123");
        assert_eq!(fmt_ms(1.234), "1.23");
        assert_eq!(fmt_ms(0.1234), "0.1234");
        assert_eq!(fmt_ms(f64::NAN), "n/a");
        assert_eq!(fmt_pct(0.891), "89.1%");
    }
}

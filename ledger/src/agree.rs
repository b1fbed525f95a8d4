//! Run logs and the run-to-run criterion.
//!
//! `--log <file>` appends one line per run: workload, seed, trace flag
//! and the result object.  `--summarize` folds a log into medians,
//! quartiles and spreads per workload and metric; `--agree` compares two
//! logs of the same workloads against the bounds in `BENCHMARK.json`.

use crate::stats::{median, quartiles};
use jact_obs::json::Json;
use std::collections::BTreeMap;
use std::io::Write;

/// The contract this binary was built against.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A JSON reader for the files this tool writes itself.
struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_space();
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.at))
        }
    }

    /// Whether the next token closes the container (consumed) or an item
    /// follows (a separating comma, consumed unless this is the first).
    fn closes(&mut self, close: u8, first: bool) -> Result<bool, String> {
        self.skip_space();
        if self.bytes.get(self.at) == Some(&close) {
            self.at += 1;
            return Ok(true);
        }
        if !first {
            self.expect(b',')?;
        }
        Ok(false)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at).copied() {
                Some(b'"') => break,
                Some(b'\\') => {
                    self.at += 1;
                    out.push(match self.bytes.get(self.at).copied() {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(b'r') => b'\r',
                        Some(c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(format!("unsupported escape at byte {}", self.at)),
                    });
                }
                Some(c) => out.push(c),
                None => return Err("unterminated string".to_string()),
            }
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(out).map_err(|e| e.to_string())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        match self.bytes.get(self.at).copied() {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                while !self.closes(b'}', fields.is_empty())? {
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                }
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                while !self.closes(b']', items.is_empty())? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| !b",]} \n\r\t".contains(b))
                {
                    self.at += 1;
                }
                match std::str::from_utf8(&self.bytes[start..self.at]).unwrap_or("") {
                    "true" => Ok(Json::Bool(true)),
                    "false" => Ok(Json::Bool(false)),
                    "null" => Ok(Json::Null),
                    word => word
                        .parse()
                        .map(Json::Num)
                        .map_err(|_| format!("bad token {word:?} at byte {start}")),
                }
            }
            None => Err("unexpected end of input".to_string()),
        }
    }
}

pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.skip_space();
    if p.at == p.bytes.len() {
        Ok(v)
    } else {
        Err(format!("trailing input at byte {}", p.at))
    }
}

fn get<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    match v {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn text<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
    match get(v, key) {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    }
}

fn number(v: &Json, key: &str) -> Option<f64> {
    match get(v, key) {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    }
}

/// Appends one run to a log.
pub fn append_log(
    path: &str,
    workload: &str,
    seed: u64,
    trace: bool,
    result: &str,
) -> Result<(), String> {
    let line = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\"result\":{result}}}\n",
        u8::from(trace)
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("{path}: {e}"))
}

/// Order statistics of one metric on one workload.
struct Summary {
    unit: String,
    values: Vec<f64>,
}

impl Summary {
    fn median(&self) -> f64 {
        median(&self.values)
    }

    /// Distance between the quartiles as a share of the median.
    fn spread(&self) -> Option<f64> {
        let [q1, _, q3] = quartiles(&self.values)?;
        Some((q3 - q1) / self.median().abs())
    }
}

type Table = BTreeMap<String, BTreeMap<String, Summary>>;

/// Reads a log into workload -> metric -> values.  Traced and untraced
/// runs carry different metric names and share the workload's table.
fn read_log(path: &str) -> Result<Table, String> {
    let log = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut table = Table::new();
    for (i, line) in log
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let run = parse(line).map_err(|e| bad(&e))?;
        let workload = text(&run, "workload").ok_or_else(|| bad("no workload"))?;
        let Some(Json::Obj(metrics)) = get(&run, "result").and_then(|r| get(r, "metrics")) else {
            return Err(bad("no result.metrics"));
        };
        for (name, m) in metrics {
            let value = number(m, "value").ok_or_else(|| bad("metric without a value"))?;
            let unit = text(m, "unit").unwrap_or("").to_string();
            table
                .entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_insert_with(|| Summary {
                    unit,
                    values: Vec::new(),
                })
                .values
                .push(value);
        }
    }
    Ok(table)
}

/// `--summarize`: prints a log's medians, quartiles and spreads as JSON.
pub fn summarize(path: &str) -> Result<(), String> {
    let mut doc = Json::obj();
    for (workload, metrics) in read_log(path)? {
        let mut obj = Json::obj();
        for (name, s) in metrics {
            let q = quartiles(&s.values);
            obj = obj.field(
                &name,
                Json::obj()
                    .field("unit", s.unit.as_str())
                    .field("n", s.values.len())
                    .field("median", s.median())
                    .field("q1", q.map_or(Json::Null, |q| Json::Num(q[0])))
                    .field("q3", q.map_or(Json::Null, |q| Json::Num(q[2])))
                    .field("spread", s.spread().map_or(Json::Null, Json::Num)),
            );
        }
        doc = doc.field(&workload, obj);
    }
    print!("{}", doc.to_pretty_string());
    Ok(())
}

/// `--agree`: for every workload and end-to-end metric in both logs,
/// whether neither median is worse than the other by more than the
/// metric's bound.  Returns whether all agree.
pub fn agree(path_a: &str, path_b: &str) -> Result<bool, String> {
    let contract = parse(BENCHMARK_JSON)?;
    let Some(Json::Arr(end_to_end)) = get(&contract, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end".to_string());
    };
    let (a, b) = (read_log(path_a)?, read_log(path_b)?);
    let mut all = true;
    println!(
        "{:<18} {:<18} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "diff", "spread a", "spread b", "bound"
    );
    for (workload, metrics_a) in &a {
        let Some(metrics_b) = b.get(workload) else {
            continue;
        };
        for m in end_to_end {
            let (Some(name), Some(bound)) = (text(m, "name"), number(m, "bound")) else {
                return Err("BENCHMARK.json: end_to_end entry without name or bound".to_string());
            };
            let (Some(sa), Some(sb)) = (metrics_a.get(name), metrics_b.get(name)) else {
                continue;
            };
            let diff = (sb.median() - sa.median()).abs() / sa.median().abs();
            let ok = diff <= bound;
            all &= ok;
            let pct = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{:.2}%", 100.0 * x));
            println!(
                "{workload:<18} {name:<18} {:>12.5} {:>12.5} {:>8} {:>8} {:>8} {:>6}  {}",
                sa.median(),
                sb.median(),
                pct(Some(diff)),
                pct(sa.spread()),
                pct(sb.spread()),
                pct(Some(bound)),
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_the_writer_writes() {
        let doc = Json::obj()
            .field("name", "a \"quoted\"\nline")
            .field("n", 3usize)
            .field("x", -1.25e-3)
            .field("ok", true)
            .field("none", Json::Null)
            .field(
                "list",
                Json::Arr(vec![Json::Num(1.0), Json::obj(), Json::Arr(Vec::new())]),
            );
        assert_eq!(parse(&doc.to_string()), Ok(doc.clone()));
        assert_eq!(parse(&doc.to_pretty_string()), Ok(doc));
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("[1 2]").is_err());
    }

    #[test]
    fn contract_lists_exactly_the_metrics_and_workloads_printed() {
        let contract = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match get(&contract, key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        (
                            text(m, "name").expect("name").to_string(),
                            text(m, "unit").unwrap_or("").to_string(),
                        )
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json has no {key}"),
            }
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&crate::END_TO_END));
        assert_eq!(names("per_layer"), own(&crate::PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}

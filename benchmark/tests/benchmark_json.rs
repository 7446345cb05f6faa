//! `/BENCHMARK.json` and the code agree: same workloads, same metric
//! names, units, directions and bounds, and the result line carries
//! exactly those names.

use nezha_benchmark::runner::{self, Child, WorkloadResult};
use nezha_benchmark::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};

/// Just enough JSON to read the two documents under test.
#[derive(Debug, PartialEq)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i] as char, c as char, "at byte {}", self.i);
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.i]
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not used in these files");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                while self.peek() != b'}' {
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(fields)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("number '{text}'")))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes");
    v
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key '{key}'")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    parse(&text)
}

/// A name is 1–64 letters, digits, `_`, `.` and `-`, starting with a
/// letter or a digit.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_has_the_contract_shape() {
    let doc = benchmark_json();
    assert_eq!(
        doc.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command: Vec<&str> = doc.get("command").items().iter().map(Json::str).collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let paths: Vec<&str> = doc.get("paths").items().iter().map(Json::str).collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = doc.get("run_seconds").num();
    assert_eq!(seconds, spec::DEFAULT_SECONDS);
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn workloads_match_the_spec() {
    let doc = benchmark_json();
    let listed = doc.get("workloads").items();
    assert!((2..=8).contains(&listed.len()));
    assert_eq!(listed.len(), WORKLOADS.len());
    for (w, spec) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(w.keys(), ["name", "why"]);
        assert_eq!(w.get("name").str(), spec.name);
        let why = w.get("why").str();
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
}

#[test]
fn metrics_match_the_spec_and_names_are_unique_and_valid() {
    let doc = benchmark_json();
    let e2e = doc.get("end_to_end").items();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, spec) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
        assert_eq!(m.get("name").str(), spec.name);
        assert_eq!(m.get("unit").str(), spec.unit);
        assert_eq!(m.get("better").str(), spec.better.as_str());
        assert_eq!(m.get("bound").num(), spec.bound);
        assert!(spec.bound > 0.0 && spec.bound <= 0.25);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

    let layers = doc.get("per_layer").items();
    assert!((1..=128).contains(&layers.len()));
    assert_eq!(layers.len(), PER_LAYER.len());
    for (m, spec) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(m.keys(), ["name", "unit", "better"]);
        assert_eq!(m.get("name").str(), spec.name);
        assert_eq!(m.get("unit").str(), spec.unit);
        assert_eq!(m.get("better").str(), spec.better.as_str());
    }

    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        assert!(valid_unit(unit), "{unit}");
    }
    names.sort_unstable();
    let total = names.len();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}

#[test]
fn name_rule() {
    assert!(valid_name("sim.engine.hold_ns"));
    assert!(valid_name("9-lives_v2.x"));
    assert!(!valid_name(""));
    assert!(!valid_name(".hidden"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
}

fn fake_child() -> Child {
    let mut c = Child {
        digest: "00".to_string(),
        laps: vec![500_000_000, 2_000_000_000],
        setup_laps: 1,
        ..Child::default()
    };
    for (k, v) in [
        ("setup_s", 0.5),
        ("run_wall_s", 2.0),
        ("work", 1000.0),
        ("attempted", 1000.0),
        ("failed", 0.0),
        ("peak_rss_mb", 64.0),
    ] {
        c.kv.insert(k.to_string(), v);
    }
    c
}

#[test]
fn result_line_keys_are_the_benchmark_json_names() {
    let doc = benchmark_json();
    let names = |section: &str| -> Vec<String> {
        doc.get(section)
            .items()
            .iter()
            .map(|m| m.get("name").str().to_string())
            .collect()
    };
    let mut res = WorkloadResult::new(
        "crr_local",
        vec![fake_child(), fake_child(), fake_child()],
        None,
    );
    res.per_layer = PER_LAYER.iter().map(|m| (m.name, 1.5)).collect();
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let line = parse(&runner::result_line(&res, trace));
        assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), &Json::Bool(true));
        assert_eq!(line.get("attempted").num(), 1000.0);
        assert_eq!(line.get("failed").num(), 0.0);
        let metrics = line.get("metrics");
        assert_eq!(metrics.keys(), names(section));
        for (key, unit) in metrics.keys().iter().zip(doc.get(section).items()) {
            let m = metrics.get(key);
            assert_eq!(m.keys(), ["value", "unit"]);
            assert_eq!(m.get("unit").str(), unit.get("unit").str());
            assert!(m.get("value").num().is_finite());
        }
    }
}

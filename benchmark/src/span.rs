//! Wall-clock spans recorded from outside the layers: the benchmark
//! wraps each call into a layer's public API in a span, keeps the spans
//! in memory, and writes them out once at the end (`--trace-out`).

use std::time::Instant;

use crate::json::Json;

/// One timed interval. `parent` indexes into the recorder's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Which repetition of the enclosing measurement this span is from.
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
#[must_use]
pub struct Open(usize);

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    list: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            list: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Label the spans opened from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &str) -> Open {
        let idx = self.list.len();
        let now = self.now_ns();
        self.list.push(Span {
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close a span; returns its duration in seconds. Spans close in
    /// LIFO order — anything still open above `open` is closed with it.
    pub fn exit(&mut self, open: Open) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.list[top].end_ns = now;
            if top == open.0 {
                break;
            }
        }
        self.list[open.0].duration_ns() as f64 / 1e9
    }

    /// Time one call as a leaf span; returns its result and seconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name);
        let r = f();
        (r, self.exit(open))
    }

    pub fn list(&self) -> &[Span] {
        &self.list
    }

    /// Summed duration, in seconds, of the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .list
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Shortest duration, in seconds, among spans called `name`.
    pub fn floor_s(&self, name: &str) -> Option<f64> {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .reduce(f64::min)
    }
}

/// Per-span self time: its duration minus the part of it covered by
/// its direct children. Spans of one recorder never overlap their
/// siblings, so the children's durations simply add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < own.len()) {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// The span list as a JSON array; each span also carries its self time,
/// so a reader need not rebuild the tree to use it.
pub fn to_json(spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(own)
            .map(|(s, self_ns)| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("rep", Json::Num(f64::from(s.rep))),
                    ("self_ns", Json::Num(self_ns as f64)),
                ])
            })
            .collect(),
    )
}

/// Parse a span array and check that the self times it states are the
/// ones its own tree implies — what a written span file must satisfy.
pub fn check(doc: &Json) -> Result<Vec<Span>, String> {
    let spans = from_json(doc)?;
    let stated = doc
        .as_arr()
        .into_iter()
        .flatten()
        .map(|item| item.get("self_ns").and_then(Json::as_f64).map(|n| n as u64));
    for (i, (stated, derived)) in stated.zip(self_times_ns(&spans)).enumerate() {
        if stated != Some(derived) {
            return Err(format!(
                "span {i}: self_ns {stated:?}, tree implies {derived}"
            ));
        }
    }
    Ok(spans)
}

pub fn from_json(doc: &Json) -> Result<Vec<Span>, String> {
    let items = doc.as_arr().ok_or("span file is not an array")?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let num = |key: &str| {
                item.get(key)
                    .and_then(Json::as_f64)
                    .filter(|n| *n >= 0.0)
                    .ok_or_else(|| format!("span {i}: bad '{key}'"))
            };
            let parent = match item.get("parent") {
                Some(Json::Null) | None => None,
                Some(p) => {
                    let p = p
                        .as_f64()
                        .ok_or_else(|| format!("span {i}: bad 'parent'"))?
                        as usize;
                    // A parent opens before its child, so it has a lower index.
                    if p >= i {
                        return Err(format!("span {i}: parent {p} is not an earlier span"));
                    }
                    Some(p)
                }
            };
            Ok(Span {
                name: item
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("span {i}: bad 'name'"))?
                    .to_owned(),
                start_ns: num("start_ns")? as u64,
                end_ns: num("end_ns")? as u64,
                parent,
                rep: num("rep")? as u32,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("build", 5, 25, Some(0)),
            span("run", 30, 90, Some(0)),
            span("inner", 40, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn recorder_nests_and_survives_a_file_round_trip() {
        let mut rec = Spans::default();
        rec.set_rep(3);
        let outer = rec.enter("outer");
        let (v, secs) = rec.time("leaf", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        rec.exit(outer);
        let list = rec.list().to_vec();
        assert_eq!(list[1].parent, Some(0));
        assert_eq!(list[0].parent, None);
        assert_eq!(list[1].rep, 3);
        assert!(list[0].end_ns >= list[1].end_ns);
        assert!(rec.floor_s("leaf").is_some());
        assert!(rec.floor_s("absent").is_none());

        let text = to_json(&list).pretty();
        let back = check(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, list);
        assert_eq!(self_times_ns(&back), self_times_ns(&list));
        // A file whose stated self time contradicts its tree is rejected.
        let forged = text.replacen("\"self_ns\": ", "\"self_ns\": 1", 1);
        assert!(check(&json::parse(&forged).unwrap()).is_err());

        // A child naming a later span as its parent is rejected.
        let bad = r#"[{"name":"a","start_ns":0,"end_ns":1,"parent":1,"rep":0}]"#;
        assert!(from_json(&json::parse(bad).unwrap()).is_err());
    }
}

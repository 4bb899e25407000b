//! Differential and corruption properties for the `POST /ingest`
//! decoder.
//!
//! The oracle is the tree-based decode the pull decoder replaced:
//! parse the body to a [`Value`], then pick fields. It lives only here.
//! Generated bodies vary the instructions, whitespace, key order,
//! duplicate and unknown keys, `\uXXXX` escapes, `"dst": null` and a
//! missing `taken`, and must decode to the same batch or the same error
//! through both paths. Truncated and byte-flipped bodies must come back
//! as `Err`, never as a panic.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use uarch_obs::json::Value;

use super::*;

/// The tree-based body decode: the reference semantics.
fn reference_body(text: &str) -> Result<IngestBatch, String> {
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let session = doc
        .get("session")
        .and_then(Value::as_str)
        .ok_or("missing \"session\" string")?;
    if session.is_empty() || session.len() > 128 {
        return Err("\"session\" must be 1..=128 characters".into());
    }
    let window = match doc.get("window") {
        None => None,
        Some(v) => {
            let w = num_u64(v).ok_or("\"window\" must be a non-negative integer")? as usize;
            if w == 0 || w > MAX_WINDOW {
                return Err(format!("\"window\" must be in 1..={MAX_WINDOW}"));
            }
            Some(w)
        }
    };
    let done = match doc.get("done") {
        None => false,
        Some(Value::Bool(b)) => *b,
        Some(_) => return Err("\"done\" must be a boolean".into()),
    };
    let insts = match doc.get("insts") {
        None => Vec::new(),
        Some(v) => {
            let items = v.as_arr().ok_or("\"insts\" must be an array")?;
            if items.len() > MAX_BATCH_INSTS {
                return Err(format!(
                    "\"insts\" over the per-request cap ({MAX_BATCH_INSTS})"
                ));
            }
            items
                .iter()
                .enumerate()
                .map(|(i, item)| reference_inst(item).map_err(|e| format!("insts[{i}]: {e}")))
                .collect::<Result<Vec<Inst>, String>>()?
        }
    };
    Ok(IngestBatch {
        session: session.to_string(),
        window,
        insts,
        done,
    })
}

/// The tree-based instruction decode.
fn reference_inst(item: &Value) -> Result<Inst, String> {
    let pc = item
        .get("pc")
        .and_then(num_u64)
        .ok_or("missing \"pc\" integer")?;
    let op = item
        .get("op")
        .and_then(Value::as_str)
        .ok_or("missing \"op\" mnemonic")?;
    let op = OpClass::from_mnemonic(op).ok_or_else(|| format!("unknown op mnemonic {op:?}"))?;
    let next_pc = item
        .get("next_pc")
        .and_then(num_u64)
        .ok_or("missing \"next_pc\" integer")?;
    let dst = match item.get("dst") {
        None | Some(Value::Null) => None,
        Some(v) => {
            let name = v.as_str().ok_or("\"dst\" must be a register string")?;
            Some(parse_reg(name)?)
        }
    };
    let mut srcs = [None, None];
    if let Some(v) = item.get("srcs") {
        let names = v.as_arr().ok_or("\"srcs\" must be an array")?;
        if names.len() > 2 {
            return Err("\"srcs\" holds at most two registers".into());
        }
        for (i, name) in names.iter().enumerate() {
            let name = name.as_str().ok_or("\"srcs\" entries must be strings")?;
            srcs[i] = Some(parse_reg(name)?);
        }
    }
    let mem_addr = match item.get("mem") {
        None => 0,
        Some(v) => num_u64(v).ok_or("\"mem\" must be a non-negative integer")?,
    };
    let taken = match item.get("taken") {
        None => op.is_branch() && !op.is_cond_branch(),
        Some(Value::Bool(b)) => *b,
        Some(_) => return Err("\"taken\" must be a boolean".into()),
    };
    Ok(Inst {
        pc,
        op,
        srcs,
        dst,
        mem_addr,
        taken,
        next_pc,
    })
}

fn num_u64(v: &Value) -> Option<u64> {
    let n = v.as_num()?;
    (n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0).then_some(n as u64)
}

/// A document before rendering. Keys and scalars are raw JSON text, so
/// escapes and odd-but-valid spellings are written exactly.
#[derive(Debug)]
enum Node {
    Raw(String),
    Arr(Vec<Node>),
    Obj(Vec<(String, Node)>),
}

/// How a client lays out whitespace.
#[derive(Debug, Clone, Copy)]
enum Style {
    Compact,
    /// Python's `json.dumps` default: `", "` and `": "`.
    Dumps,
    Pretty,
    Random,
}

/// The body generator: a random source plus whether this body may
/// carry semantic defects. Clean bodies still vary layout, escapes,
/// unknown keys and overridden duplicates, and must decode.
struct Gen<'r> {
    rng: &'r mut TestRng,
    clean: bool,
}

impl Gen<'_> {
    fn below(&mut self, bound: u64) -> u64 {
        self.rng.below(bound)
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.rng.below(one_in) == 0
    }

    /// A defect, one in `one_in` times, never in a clean body.
    fn bad(&mut self, one_in: u64) -> bool {
        !self.clean && self.chance(one_in)
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    /// `s` as a JSON string literal, one in four times with one
    /// character spelled as a `\uXXXX` escape.
    fn quoted(&mut self, s: &str) -> String {
        let chars: Vec<char> = s.chars().collect();
        if chars.is_empty() || !self.chance(4) {
            return json::quote(s);
        }
        let at = self.below(chars.len() as u64) as usize;
        let mut out = String::from("\"");
        for (i, &c) in chars.iter().enumerate() {
            if i == at && (c as u32) < 0x1_0000 {
                if self.chance(2) {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                } else {
                    out.push_str(&format!("\\u{:04X}", c as u32));
                }
            } else {
                let quoted = json::quote(&c.to_string());
                out.push_str(&quoted[1..quoted.len() - 1]);
            }
        }
        out.push('"');
        out
    }

    fn literal(&mut self, s: &str) -> Node {
        Node::Raw(self.quoted(s))
    }

    /// A value no scalar slot accepts as an integer, or a wrong type.
    fn junk(&mut self) -> Node {
        match self.below(10) {
            0 => raw("-1"),
            1 => raw("1.5"),
            2 => raw("9007199254740994"),
            3 => raw("\"4\""),
            4 => raw("null"),
            5 => raw("true"),
            6 => Node::Arr(vec![raw("1")]),
            7 => Node::Obj(vec![("\"pc\"".into(), raw("4"))]),
            8 => raw("-0.5e1"),
            _ => raw("\"r1\""),
        }
    }

    /// A non-negative integer the decoder accepts, in one of its
    /// spellings; or, one in `one_in` times in a defective body, junk.
    fn int(&mut self, one_in: u64) -> Node {
        if self.bad(one_in) {
            return self.junk();
        }
        let n = match self.below(4) {
            0 => self.below(64),
            1 => self.below(1 << 20),
            2 => self.below(1 << 53),
            _ => 1 << 53,
        };
        match self.below(8) {
            0 => raw(format!("{n}.0")),
            1 if n % 1000 == 0 && n > 0 => raw(format!("{}e3", n / 1000)),
            2 if n == 0 => raw("-0"),
            _ => raw(n.to_string()),
        }
    }

    fn reg(&mut self) -> Node {
        if self.bad(16) {
            return self.junk();
        }
        let name = if self.bad(16) {
            self.pick(&["r32", "x1", "r", "", "f-1", "rr1", "r256", "f99"])
                .to_string()
        } else {
            let kind = self.pick(&['r', 'f']);
            format!("{kind}{}", self.below(32))
        };
        self.literal(&name)
    }

    fn op(&mut self) -> Node {
        if self.bad(16) {
            return match self.below(3) {
                0 => {
                    let name = self.pick(&["hcf", "LD", "", "load"]);
                    self.literal(name)
                }
                1 => raw("7"),
                _ => raw("null"),
            };
        }
        let op = self.pick(&OpClass::ALL);
        self.literal(op.mnemonic())
    }

    /// A value for an unknown key.
    fn noise(&mut self) -> Node {
        match self.below(5) {
            0 => self.literal("é \u{1F600} \"q\" \\ \t"),
            1 => Node::Obj(vec![
                (
                    self.quoted("y"),
                    Node::Arr(vec![raw("1"), raw("-2.5e-3"), raw("false")]),
                ),
                (self.quoted(""), raw("null")),
            ]),
            2 => Node::Arr(Vec::new()),
            3 => raw("1E+2"),
            _ => self.junk(),
        }
    }

    /// Shuffle `members`, add unknown keys, and sometimes duplicate a
    /// key with junk: before the original in a clean body (the later,
    /// valid one wins), anywhere otherwise.
    fn object(&mut self, mut members: Vec<(&str, Node)>) -> Node {
        for i in (1..members.len()).rev() {
            members.swap(i, self.below(i as u64 + 1) as usize);
        }
        for _ in 0..self.below(3) {
            let at = self.below(members.len() as u64 + 1) as usize;
            let name = self.pick(&["x", "extra", "pcs", "PC", "op "]);
            let value = self.noise();
            members.insert(at, (name, value));
        }
        if !members.is_empty() && self.chance(3) {
            let original = self.below(members.len() as u64) as usize;
            let name = members[original].0;
            let at = if self.clean {
                self.below(original as u64 + 1)
            } else {
                self.below(members.len() as u64 + 1)
            } as usize;
            let value = self.junk();
            members.insert(at, (name, value));
        }
        let members = members
            .into_iter()
            .map(|(name, value)| (self.quoted(name), value))
            .collect();
        Node::Obj(members)
    }

    fn inst(&mut self) -> Node {
        if self.bad(24) {
            return self.junk();
        }
        let mut members = Vec::new();
        if !self.bad(32) {
            members.push(("pc", self.int(32)));
        }
        members.push(("op", self.op()));
        if !self.bad(32) {
            members.push(("next_pc", self.int(32)));
        }
        match self.below(4) {
            0 => {}
            1 => members.push(("dst", raw("null"))),
            _ => members.push(("dst", self.reg())),
        }
        if !self.chance(3) {
            let srcs = if self.bad(32) {
                self.literal("r1")
            } else {
                let n = if self.bad(24) { 3 } else { self.below(3) };
                Node::Arr((0..n).map(|_| self.reg()).collect())
            };
            members.push(("srcs", srcs));
        }
        if self.chance(2) {
            members.push(("mem", self.int(24)));
        }
        if !self.chance(3) {
            let taken = if self.bad(24) {
                self.junk()
            } else {
                raw(self.pick(&["true", "false"]))
            };
            members.push(("taken", taken));
        }
        self.object(members)
    }

    fn body(&mut self) -> Node {
        if self.bad(24) {
            return match self.below(3) {
                0 => raw("5"),
                1 => Node::Arr(vec![self.literal("session")]),
                _ => self.literal("s"),
            };
        }
        let mut members = Vec::new();
        let session = if self.bad(12) {
            match self.below(4) {
                0 => None,
                1 => Some(self.literal("")),
                2 => Some(self.literal(&"s".repeat(129))),
                _ => Some(self.junk()),
            }
        } else if self.chance(8) {
            Some(self.literal("é\u{1F600}\"\\\u{1}"))
        } else {
            let id = format!("cli-{}", self.below(100));
            Some(self.literal(&id))
        };
        if let Some(session) = session {
            members.push(("session", session));
        }
        if self.bad(6) {
            let window = match self.below(3) {
                0 => raw("0"),
                1 => raw((MAX_WINDOW + 1).to_string()),
                _ => self.junk(),
            };
            members.push(("window", window));
        } else if self.chance(2) {
            members.push(("window", raw((1 + self.below(1024)).to_string())));
        }
        if self.bad(16) {
            members.push(("insts", self.junk()));
        } else if !self.chance(16) {
            let n = self.below(10);
            members.push(("insts", Node::Arr((0..n).map(|_| self.inst()).collect())));
        }
        if self.bad(8) {
            members.push(("done", self.junk()));
        } else if self.chance(2) {
            members.push(("done", raw(self.pick(&["true", "false"]))));
        }
        self.object(members)
    }
}

fn raw(text: impl Into<String>) -> Node {
    Node::Raw(text.into())
}

fn ws(style: Style, depth: usize, rng: &mut TestRng, out: &mut String) {
    match style {
        Style::Compact | Style::Dumps => {}
        Style::Pretty => {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        Style::Random => {
            let pad = ["", "", " ", "\n", "\t", "\r\n  "];
            out.push_str(pad[rng.below(pad.len() as u64) as usize]);
        }
    }
}

fn render(node: &Node, style: Style, depth: usize, rng: &mut TestRng, out: &mut String) {
    let sep = |out: &mut String, rng: &mut TestRng| {
        if matches!(style, Style::Random) {
            ws(style, depth + 1, rng, out);
        }
    };
    let comma = if matches!(style, Style::Dumps) {
        ", "
    } else {
        ","
    };
    match node {
        Node::Raw(text) => out.push_str(text),
        Node::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    sep(out, rng);
                    out.push_str(comma);
                }
                ws(style, depth + 1, rng, out);
                render(item, style, depth + 1, rng, out);
            }
            ws(style, depth, rng, out);
            out.push(']');
        }
        Node::Obj(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    sep(out, rng);
                    out.push_str(comma);
                }
                ws(style, depth + 1, rng, out);
                out.push_str(key);
                sep(out, rng);
                out.push_str(match style {
                    Style::Dumps | Style::Pretty => ": ",
                    _ => ":",
                });
                sep(out, rng);
                render(value, style, depth + 1, rng, out);
            }
            ws(style, depth, rng, out);
            out.push('}');
        }
    }
}

/// Rendered ingest bodies; `objects` keeps only top-level objects (so
/// every proper prefix is malformed).
struct Bodies {
    objects: bool,
}

impl Strategy for Bodies {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        loop {
            let clean = rng.below(2) == 0;
            let node = Gen { rng, clean }.body();
            if self.objects && !matches!(node, Node::Obj(_)) {
                continue;
            }
            let styles = [Style::Compact, Style::Dumps, Style::Pretty, Style::Random];
            let style = styles[rng.below(styles.len() as u64) as usize];
            let mut out = String::new();
            if matches!(style, Style::Random) {
                ws(style, 0, rng, &mut out);
            }
            render(&node, style, 0, rng, &mut out);
            if matches!(style, Style::Random) {
                ws(style, 0, rng, &mut out);
            }
            return out;
        }
    }
}

/// Bytes a corruption writes: mostly JSON structure, sometimes any byte.
const FLIP_BYTES: &[u8] = b"{}[]\",:\\ 019-.eEtfnu";

/// Decode raw bytes the way `IngestSessions::handle` does.
fn decode(
    bytes: &[u8],
    via: fn(&str) -> Result<IngestBatch, String>,
) -> Result<IngestBatch, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "body is not UTF-8".to_string())?;
    via(text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pull_decoder_agrees_with_the_tree_reference(text in Bodies { objects: false }) {
        prop_assert_eq!(parse_ingest_body(&text), reference_body(&text), "body: {}", text);
    }

    #[test]
    fn corrupted_bodies_fail_cleanly(
        text in Bodies { objects: true },
        cut in any::<u64>(),
        flips in prop::collection::vec((any::<u64>(), any::<u8>(), any::<bool>()), 1..4),
    ) {
        // Every proper prefix that stops before the closing brace is
        // malformed, and says so.
        let close = text.rfind('}').expect("object body");
        let truncated = &text.as_bytes()[..cut as usize % (close + 1)];
        let got = decode(truncated, parse_ingest_body);
        prop_assert_eq!(&got, &decode(truncated, reference_body));
        let err = got.expect_err("a truncated object never decodes");
        prop_assert!(
            err.starts_with("invalid JSON:") || err == "body is not UTF-8",
            "{}",
            err
        );
        let mut flipped = text.clone().into_bytes();
        for (at, byte, structural) in flips {
            let at = at as usize % flipped.len();
            flipped[at] = if structural {
                FLIP_BYTES[byte as usize % FLIP_BYTES.len()]
            } else {
                byte
            };
        }
        prop_assert_eq!(
            decode(&flipped, parse_ingest_body),
            decode(&flipped, reference_body),
            "body: {}",
            String::from_utf8_lossy(&flipped)
        );
    }
}

#[test]
fn generated_bodies_exercise_every_outcome() {
    // The generator is only useful if it reaches valid batches and each
    // error class; count what 512 bodies decode to.
    let mut rng = TestRng::from_seed(7);
    let bodies = Bodies { objects: false };
    let (mut ok, mut nonempty, mut syntax, mut semantic) = (0, 0, 0, 0);
    for _ in 0..512 {
        match parse_ingest_body(&bodies.generate(&mut rng)) {
            Ok(batch) => {
                ok += 1;
                nonempty += usize::from(!batch.insts.is_empty());
            }
            Err(e) if e.starts_with("invalid JSON:") => syntax += 1,
            Err(_) => semantic += 1,
        }
    }
    assert!(ok >= 128 && nonempty >= 96, "ok {ok}, nonempty {nonempty}");
    assert!(semantic >= 96, "semantic errors {semantic}");
    assert_eq!(syntax, 0, "generated bodies are well-formed");
}

//! A minimal JSON value model, pull reader, tree parser, and string
//! escaper.
//!
//! The exporters in this crate hand-generate their JSON (the formats
//! are fixed and flat), but tests and CI need to *validate* what was
//! written, and the serve plane needs to decode request bodies, without
//! external crates. [`Reader`] is the one grammar: a strict
//! recursive-descent pull reader over the full RFC 8259 grammar
//! (including `\uXXXX` escapes with surrogate-pair recombination) that
//! typed decoders walk field by field. [`parse`] is the tree builder
//! over it, producing a [`Value`], and [`Value::render`] goes back to
//! text — which is what makes quote→parse→render round-trips testable
//! property-style.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string (all escape sequences decoded, including `\uXXXX` and
    /// surrogate pairs).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys are sorted (later duplicates win).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Member `key` of this object, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// Render back to compact JSON text (object keys in sorted order,
    /// so equal values always render identically).
    ///
    /// Numbers use Rust's shortest-round-trip `f64` formatting; a
    /// non-finite number (which JSON cannot represent) renders as
    /// `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => out.push_str(&quote(s)),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&quote(k));
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Quote and escape `s` as a JSON string literal (with the quotes).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse `text` as a single JSON document.
///
/// Returns a human-readable error (with byte offset) on any deviation
/// from the grammar, including trailing garbage — exactly what a
/// "does the exported file parse" test wants. This is the tree builder
/// over [`Reader`]: one grammar serves both.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut r = Reader::new(text);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// The kind of JSON value a [`Reader`] is positioned at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` / `false`
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// A pull reader over one JSON document: the crate's only grammar.
///
/// Callers walk the document value by value: [`Reader::peek_kind`]
/// says what comes next, the typed reads consume it, and
/// [`Reader::object`] / [`Reader::array`] hand each member or item to a
/// callback that must consume exactly one value (for instance with
/// [`Reader::skip`], which still checks the syntax of what it passes
/// over). Typed decoders read straight into their own structs this way;
/// [`parse`] builds a [`Value`] tree the same way.
/// Every read skips leading whitespace, and every error names a byte
/// offset. Arrays and objects nest at most 512 deep, so a hostile
/// document fails cleanly instead of exhausting the stack.
/// After an error the reader is spent.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// How deep arrays and objects may nest in a document.
const MAX_DEPTH: usize = 512;

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Require that only whitespace is left.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(())
    }

    /// The kind of the next value, without consuming it; an error if no
    /// value can start here.
    pub fn peek_kind(&mut self) -> Result<Kind, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => Ok(Kind::Obj),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'"') => Ok(Kind::Str),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Num),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// Read the next value as a [`Value`] tree.
    fn value(&mut self) -> Result<Value, String> {
        Ok(match self.peek_kind()? {
            Kind::Null => {
                self.null()?;
                Value::Null
            }
            Kind::Bool => Value::Bool(self.bool()?),
            Kind::Num => Value::Num(self.number()?),
            Kind::Str => Value::Str(self.string()?.into_owned()),
            Kind::Arr => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Value::Arr(items)
            }
            Kind::Obj => {
                let mut map = BTreeMap::new();
                self.object(|r, key| {
                    let v = r.value()?;
                    map.insert(key.into_owned(), v);
                    Ok(())
                })?;
                Value::Obj(map)
            }
        })
    }

    /// Consume the next value, checking its syntax but building
    /// nothing (strings with escapes are still decoded to check them).
    pub fn skip(&mut self) -> Result<(), String> {
        match self.peek_kind()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Num => self.number().map(drop),
            Kind::Str => self.string().map(drop),
            Kind::Arr => self.array(Reader::skip),
            Kind::Obj => self.object(|r, _| r.skip()),
        }
    }

    /// Read an object, calling `member` with each key in document order
    /// (duplicates included); `member` must consume the key's value.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                member(self, key)?;
                self.skip_ws();
                match self.bump() {
                    Some(b',') => {}
                    Some(b'}') => break,
                    other => return Err(format!("expected ',' or '}}', got {other:?}")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Read an array, calling `item` once per element; `item` must
    /// consume the element.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                item(self)?;
                self.skip_ws();
                match self.bump() {
                    Some(b',') => {}
                    Some(b']') => break,
                    other => return Err(format!("expected ',' or ']', got {other:?}")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Read `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, String> {
        self.skip_ws();
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Read `null`.
    pub fn null(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.literal("null") {
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Read a string with every escape decoded. A string without
    /// escapes is borrowed from the document.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        self.expect(b'"')?;
        let start = self.pos;
        self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(Cow::Owned(out)),
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => return Err("raw control character in string".into()),
            }
            let run = self.pos;
            self.plain_run();
            out.push_str(&self.text[run..self.pos]);
        }
    }

    /// Read a number as `f64`. A plain integer of at most 15 digits (the
    /// common case, and exact in `f64`) skips the float parser.
    pub fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let int_end = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        if self.pos == int_end && (1..=15).contains(&(int_end - digits)) {
            let n = self.bytes[digits..int_end]
                .iter()
                .fold(0u64, |n, d| n * 10 + u64::from(d - b'0')) as f64;
            return Ok(if digits > start { -n } else { n });
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}",
                b as char,
                self.pos.saturating_sub(1)
            ))
        }
    }

    /// Enter an array or object at its opening byte `b`; the caller
    /// leaves it by decrementing `depth` after the closing byte.
    fn open(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        self.expect(b)?;
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos - 1
            ));
        }
        self.depth += 1;
        self.skip_ws();
        Ok(())
    }

    fn literal(&mut self, word: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(word.as_bytes());
        if hit {
            self.pos += word.len();
        }
        hit
    }

    /// Advance over string bytes that need no decoding: everything up
    /// to the closing quote, a backslash, or a raw control character.
    /// Stops only on ASCII bytes, so the run is whole UTF-8.
    fn plain_run(&mut self) {
        while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
            self.pos += 1;
        }
    }

    /// Decode one escape sequence (the backslash already consumed).
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let ch = match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hi = self.hex4()?;
                if (0xD800..=0xDBFF).contains(&hi) {
                    // High surrogate: a low surrogate escape must
                    // follow immediately.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err("unpaired high surrogate".into());
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&lo) {
                        return Err("invalid low surrogate".into());
                    }
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(cp).ok_or("bad surrogate pair")?
                } else if (0xDC00..=0xDFFF).contains(&hi) {
                    return Err("unpaired low surrogate".into());
                } else {
                    char::from_u32(hi).ok_or("bad \\u escape")?
                }
            }
            other => return Err(format!("bad escape {other:?}")),
        };
        out.push(ch);
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            match self.bump() {
                Some(d) if d.is_ascii_hexdigit() => {
                    v = v * 16 + (d as char).to_digit(16).expect("hex digit");
                }
                _ => return Err("bad \\u escape".into()),
            }
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x\ny"}"#)
            .expect("valid");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{} extra").is_err());
        assert!(parse("{\"a\": ").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn quote_roundtrips_through_parse() {
        for s in [
            "plain",
            "with \"quotes\"",
            "tab\tnl\nback\\slash",
            "héllo",
            "\u{1}\u{1f}",
            "emoji \u{1F600} pair",
        ] {
            let quoted = quote(s);
            assert_eq!(parse(&quoted).unwrap().as_str(), Some(s), "{quoted}");
        }
    }

    #[test]
    fn control_chars_are_escaped() {
        let q = quote("\u{1}");
        assert_eq!(q, "\"\\u0001\"");
        assert_eq!(parse(&q).unwrap().as_str(), Some("\u{1}"));
    }

    #[test]
    fn unicode_escapes_decode_with_surrogate_pairs() {
        assert_eq!(parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1F600}")
        );
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\ude00""#).is_err(), "lone low surrogate");
        assert!(parse(r#""\ud83d\u0041""#).is_err(), "bad low surrogate");
    }

    #[test]
    fn reader_visits_members_in_order_and_borrows_plain_strings() {
        let mut r = Reader::new(r#" {"a": "plain", "b\u0041": "esc\n", "a": [1, null]} "#);
        let mut seen = Vec::new();
        r.object(|r, key| {
            let borrowed = matches!(key, Cow::Borrowed(_));
            match r.peek_kind()? {
                Kind::Str => {
                    let v = r.string()?;
                    seen.push((key.into_owned(), borrowed, matches!(v, Cow::Borrowed(_))));
                }
                _ => {
                    r.skip()?;
                    seen.push((key.into_owned(), borrowed, false));
                }
            }
            Ok(())
        })
        .expect("valid object");
        r.finish().expect("only whitespace left");
        assert_eq!(
            seen,
            [
                ("a".to_string(), true, true),
                ("bA".to_string(), false, false),
                ("a".to_string(), true, false),
            ],
            "duplicates are visited, escaped strings are decoded owned"
        );
    }

    #[test]
    fn skip_checks_the_syntax_it_passes_over() {
        for bad in [
            r#"[1, {"a": tru}]"#,
            r#"{"k": "\ud800"}"#,
            "[1 2]",
            r#"{"a" 1}"#,
        ] {
            assert!(Reader::new(bad).skip().is_err(), "{bad}");
            assert!(parse(bad).is_err(), "{bad}");
        }
        let mut r = Reader::new(r#"{"a": [1, "x\ty", {"b": false}], "c": -2.5e3}"#);
        r.skip().expect("valid document skips");
        r.finish().expect("nothing left");
    }

    #[test]
    fn integer_fast_path_agrees_with_the_float_parser() {
        for text in [
            "0",
            "-0",
            "7",
            "-12",
            "01",
            "123456789012345",
            "999999999999999",
            "-999999999999999",
            "1234567890123456",
            "9007199254740993",
            "18446744073709551616",
            "1e3",
            "1.5",
            "-0.0",
        ] {
            let fast = Reader::new(text).number().expect(text);
            let slow: f64 = text.parse().expect(text);
            assert_eq!(fast.to_bits(), slow.to_bits(), "{text}");
        }
        assert!(Reader::new("-").number().is_err());
        assert!(Reader::new("1-2").number().is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_exhausting_the_stack() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let at_cap = deep(MAX_DEPTH);
        let v = parse(&at_cap).expect("the cap itself parses");
        assert_eq!(parse(&v.render()), Ok(v));
        let mut r = Reader::new(&at_cap);
        r.skip().expect("and skips");
        r.finish().expect("to the end");
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        let hostile = "[{\"a\":".repeat(100_000);
        assert!(parse(&hostile).unwrap_err().contains("nesting deeper"));
        assert!(Reader::new(&hostile).skip().is_err());
        // Depth is nesting, not count: many closed siblings are fine.
        let wide = format!("[{}[]]", "[[]],".repeat(10_000));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn render_roundtrips_values() {
        let text = r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x\ny"}"#;
        let v = parse(text).expect("valid");
        let rendered = v.render();
        assert_eq!(parse(&rendered).expect("render is valid JSON"), v);
    }
}

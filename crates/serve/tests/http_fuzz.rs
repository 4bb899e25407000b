//! The HTTP head reader is the server's first trust boundary. Whatever a
//! client sends — random bytes, truncated or non-UTF-8 requests, heads
//! and bodies far past the caps — `read_request` must return `Ok` or a
//! `ParseError`, never panic, and never hold more memory than its caps
//! allow, however long the input is.
//!
//! Memory is measured, not inferred: this test binary counts the bytes
//! each thread has live through a wrapping global allocator, and every
//! parse records its peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read};

use proptest::prelude::*;
use uarch_serve::http::{read_request, ParseError, Request, MAX_BODY_BYTES, MAX_HEAD_BYTES};

/// Forwards to the system allocator, tracking this thread's live bytes
/// and their high-water mark.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the bookkeeping only touches const-initialized thread-locals, which
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap a parse may hold for the head alone: the reader's 8 KiB buffer
/// plus the head's lines and their owned copies, each at most twice the
/// cap once `String` growth rounds up.
const HEAD_ALLOWANCE: usize = 8 * MAX_HEAD_BYTES;

/// Parse one request from `input`; returns the result and the peak bytes
/// the parse held beyond what was live before it (the result included).
fn parse(mut input: impl Read) -> (Result<Request, ParseError>, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let result = read_request(&mut input);
    let peak = PEAK.with(Cell::get) - start;
    (result, peak.max(0) as usize)
}

/// `parse` plus the invariants every outcome must satisfy.
fn parse_checked(input: impl Read) -> Result<Result<Request, ParseError>, TestCaseError> {
    let (result, peak) = parse(input);
    prop_assert!(
        peak <= HEAD_ALLOWANCE + MAX_BODY_BYTES,
        "parse held {peak} bytes"
    );
    if let Ok(req) = &result {
        prop_assert!(req.body.len() <= MAX_BODY_BYTES);
        let head: usize = req.method.len()
            + req.path.len()
            + req.query.as_ref().map_or(0, String::len)
            + req
                .headers
                .iter()
                .map(|(n, v)| n.len() + v.len())
                .sum::<usize>();
        prop_assert!(head <= MAX_HEAD_BYTES, "head fields hold {head} bytes");
        prop_assert!(
            peak <= HEAD_ALLOWANCE + req.body.len(),
            "parse held {peak} bytes for a {}-byte body",
            req.body.len()
        );
    }
    Ok(result)
}

/// A byte source of `len` copies of `fill` after `prefix`, generated on
/// the fly so multi-megabyte floods cost the test nothing to hold.
fn flood<'a>(prefix: &'a [u8], fill: &'static [u8], len: u64) -> impl Read + 'a {
    let fill = IterReader(fill.iter().copied().cycle().take(len as usize));
    prefix.chain(fill)
}

struct IterReader<I>(I);

impl<I: Iterator<Item = u8>> Read for IterReader<I> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut n = 0;
        for slot in buf.iter_mut() {
            match self.0.next() {
                Some(b) => *slot = b,
                None => break,
            }
            n += 1;
        }
        Ok(n)
    }
}

/// Printable header-safe text from raw bytes (letters, digits, `-`).
fn token(raw: &[u8]) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-";
    raw.iter()
        .map(|b| ALPHABET[*b as usize % ALPHABET.len()] as char)
        .collect()
}

/// One generated request: method, path, optional query, headers, body.
type Parts = (
    u8,
    Vec<u8>,
    Option<Vec<u8>>,
    Vec<(Vec<u8>, Vec<u8>)>,
    Vec<u8>,
);

fn parts() -> impl Strategy<Value = Parts> {
    (
        0u8..4,
        prop::collection::vec(any::<u8>(), 0..24),
        prop::option::of(prop::collection::vec(any::<u8>(), 0..16)),
        prop::collection::vec(
            (
                prop::collection::vec(any::<u8>(), 1..12),
                prop::collection::vec(any::<u8>(), 0..40),
            ),
            0..8,
        ),
        prop::collection::vec(any::<u8>(), 0..300),
    )
}

/// Serialize `parts`; returns the bytes and the request they describe.
fn render(parts: &Parts) -> (Vec<u8>, Request) {
    let (method, path, query, headers, body) = parts;
    let method = ["GET", "POST", "PUT", "DELETE"][*method as usize].to_string();
    let path = format!("/{}", token(path));
    let query = query.as_deref().map(token);
    let mut headers: Vec<(String, String)> = headers
        .iter()
        .map(|(n, v)| (format!("x-{}", token(n).to_ascii_lowercase()), token(v)))
        .collect();
    headers.push(("content-length".into(), body.len().to_string()));
    let target = match &query {
        Some(q) => format!("{path}?{q}"),
        None => path.clone(),
    };
    let mut bytes = format!("{method} {target} HTTP/1.1\r\n").into_bytes();
    for (n, v) in &headers {
        bytes.extend_from_slice(format!("{}: {v}\r\n", n.to_ascii_uppercase()).as_bytes());
    }
    bytes.extend_from_slice(b"\r\n");
    bytes.extend_from_slice(body);
    let request = Request {
        method,
        path,
        query,
        headers,
        body: body.clone(),
    };
    (bytes, request)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_parse_or_fail_cleanly(
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
        // Mostly-valid prefixes reach the header and body paths.
        prefix in 0u8..3,
    ) {
        let head: &[u8] = match prefix {
            0 => b"",
            1 => b"POST /query HTTP/1.1\r\n",
            _ => b"POST /query HTTP/1.1\r\ncontent-length: ",
        };
        let input = [head, &bytes].concat();
        let _ = parse_checked(input.as_slice())?;
    }

    #[test]
    fn well_formed_requests_roundtrip_and_truncations_fail_cleanly(
        parts in parts(),
        cut in any::<u16>(),
        flip in any::<u16>(),
    ) {
        let (bytes, want) = render(&parts);
        let got = parse_checked(bytes.as_slice())?.map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
        prop_assert_eq!(&got.method, &want.method);
        prop_assert_eq!(&got.path, &want.path);
        prop_assert_eq!(&got.query, &want.query);
        prop_assert_eq!(&got.headers, &want.headers);
        prop_assert_eq!(&got.body, &want.body);

        // Cut anywhere before the end: the head or body is incomplete.
        // (Dropping only the final `\n` of a bodiless request leaves a
        // complete head: the reader accepts a bare `\r` line as its end.)
        let head_len = bytes.len() - want.body.len();
        let at = cut as usize % bytes.len();
        let truncated = parse_checked(&bytes[..at])?;
        let complete_head = want.body.is_empty() && at == head_len - 1;
        prop_assert!(truncated.is_err() || complete_head, "a request cut at {} of {} parsed", at, bytes.len());

        // A non-UTF-8 byte anywhere in the head is an error, not a panic;
        // in the body it is just data.
        let mut flipped = bytes.clone();
        let at = flip as usize % flipped.len();
        flipped[at] = 0xff;
        let result = parse_checked(flipped.as_slice())?;
        if at < head_len {
            prop_assert!(result.is_err(), "non-UTF-8 head byte at {} parsed", at);
        } else {
            prop_assert_eq!(result.map(|r| r.body.len()).ok(), Some(want.body.len()));
        }
    }

    #[test]
    fn oversized_heads_are_rejected_at_the_cap(
        extra in 1u64..(4 << 20),
        kind in 0u8..4,
    ) {
        let (result, peak) = match kind {
            // One endless request line.
            0 => parse(flood(b"", b"A", MAX_HEAD_BYTES as u64 + extra)),
            // One endless header line.
            1 => parse(flood(b"GET / HTTP/1.1\r\nx: ", b"v", MAX_HEAD_BYTES as u64 + extra)),
            // Endless minimal header lines.
            2 => parse(flood(b"GET / HTTP/1.1\r\n", b"a:\r\n", MAX_HEAD_BYTES as u64 + extra)),
            // A declared body past its cap.
            _ => {
                let head = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY_BYTES as u64 + extra);
                parse(flood(head.as_bytes(), b"b", extra.min(1 << 16)))
            }
        };
        let want = match kind {
            0 => "request line",
            3 => "body",
            _ => "headers",
        };
        prop_assert!(
            matches!(result, Err(ParseError::TooLarge(what)) if what == want),
            "kind {}: {:?}", kind, result.map(|r| r.path)
        );
        prop_assert!(peak <= HEAD_ALLOWANCE, "kind {kind}: parse held {peak} bytes");
    }
}

#[test]
fn content_lengths_that_overflow_are_malformed() {
    for value in ["18446744073709551616", "-1", "0x10", "1e3", ""] {
        let head = format!("POST / HTTP/1.1\r\ncontent-length: {value}\r\n\r\n");
        let (result, _) = parse(head.as_bytes());
        assert!(
            matches!(result, Err(ParseError::Malformed(_))),
            "{value:?}: {result:?}"
        );
    }
    // A body exactly at the cap is accepted.
    let head = format!("POST / HTTP/1.1\r\ncontent-length: {MAX_BODY_BYTES}\r\n\r\n");
    let (result, peak) = parse(flood(head.as_bytes(), b"b", MAX_BODY_BYTES as u64));
    assert_eq!(result.expect("at the cap").body.len(), MAX_BODY_BYTES);
    assert!(peak <= HEAD_ALLOWANCE + MAX_BODY_BYTES, "{peak}");
}

//! Property tests for the hand-rolled parsers that read daemon input:
//! the HTTP request parser, the spec parsers `pom_sweep::parse_*` (job
//! bodies), the `tokens.toml` parser behind `auth=`, and
//! `scan_completed_at`, which reads a result file back on resume.
//! Arbitrary bytes and mutated copies of the example specs and of a
//! valid request never panic, and every parsed value survives a render →
//! `parse_json` round trip. Each HTTP limit answers its documented
//! status, and a well-formed request round-trips. A result file cut at
//! any byte scans to exactly the rows that survived the cut.

use std::collections::HashSet;
use std::io::{self, Read};
use std::sync::OnceLock;

use pom_serve::http::{read_request, Request, RequestError, MAX_BODY, MAX_HEADERS, MAX_LINE};
use pom_serve::TokenBook;
use pom_sweep::{parse_auto, parse_json, parse_toml, Value};
use pom_sweep::{scan_completed_at, Campaign};
use proptest::prelude::*;

const SEEDS: [&str; 4] = [
    include_str!("../../../examples/specs/ensemble_ci.toml"),
    include_str!("../../../examples/specs/idle_wave_large.toml"),
    include_str!("../../../examples/specs/sigma_sweep.toml"),
    "[tokens.alice]\nmax_active_jobs = 2\nmax_total_points = 1000\n\n[tokens.bob]\n",
];

/// Bytes that steer mutations into the grammars' corners.
const SYNTAX: &[u8] = b"[]{}\"=#,.:\\\n -+_0123456789eEunrtfalsetokens";

fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![any::<u8>(), (0..SYNTAX.len()).prop_map(|i| SYNTAX[i])]
}

/// Apply edits of (position, byte, 0 = replace | 1 = insert | 2 = delete).
fn mutate(seed: &str, edits: &[(usize, u8, u8)]) -> String {
    String::from_utf8_lossy(&mutate_bytes(seed.as_bytes(), edits)).into_owned()
}

fn mutate_bytes(seed: &[u8], edits: &[(usize, u8, u8)]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for &(pos, b, kind) in edits {
        let at = pos % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] = b,
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, b),
        }
    }
    bytes
}

/// Every parser returns instead of panicking; whatever parses renders to
/// canonical JSON that parses back to the same canonical form, and an
/// accepted token book holds a token.
fn check(text: &str) {
    let parsed = [parse_toml(text), parse_json(text), parse_auto(text)];
    for v in parsed.into_iter().flatten() {
        round_trips(&v);
    }
    if let Ok(book) = TokenBook::parse(text) {
        assert!(!book.is_empty(), "accepted a book with no tokens: {text:?}");
    }
}

fn round_trips(v: &Value) {
    let canonical = v.canonical();
    let back = parse_json(&canonical)
        .unwrap_or_else(|e| panic!("canonical form does not parse ({e}): {canonical}"));
    assert_eq!(back.canonical(), canonical);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        check(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn syntax_heavy_bytes_never_panic(bytes in prop::collection::vec(byte(), 0..512)) {
        check(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_files_never_panic(
        which in 0..SEEDS.len(),
        edits in prop::collection::vec((any::<usize>(), byte(), 0u8..3), 1..9),
    ) {
        check(&mutate(SEEDS[which], &edits));
    }
}

#[test]
fn seed_files_parse_and_round_trip() {
    for seed in SEEDS {
        round_trips(&parse_toml(seed).expect("seed file parses"));
    }
    assert_eq!(TokenBook::parse(SEEDS[3]).unwrap().len(), 2);
}

/// The float `-0.0` renders as `-0`, which used to parse back as the
/// integer 0 and so broke the round trip.
#[test]
fn negative_zero_round_trips() {
    for text in ["-0.0", "[-0.0, -0, 0]", "{\"x\": -0e3}"] {
        round_trips(&parse_json(text).unwrap());
    }
    let v = parse_toml("x = -0\ny = -0.0\n").unwrap();
    assert_eq!(v.canonical(), r#"{"x":-0,"y":-0}"#);
    round_trips(&v);
}

/// Nesting is bounded: a hostile document is an error, not a stack
/// overflow that aborts the process parsing it (the daemon).
#[test]
fn deep_nesting_is_an_error() {
    let deep = |s: &str| s.repeat(100_000);
    for text in [
        deep("["),
        deep("[") + &deep("]"),
        deep("{\"a\":") + &deep("}"),
    ] {
        let err = parse_json(&text).unwrap_err();
        assert!(err.message.contains("nest deeper"), "{err}");
    }
    let err = parse_toml(&format!("x = {}{}", deep("["), deep("]"))).unwrap_err();
    assert!(err.message.contains("nest deeper"), "{err}");
    // Spec-like depths still parse.
    let shallow = format!("{}1{}", "[".repeat(100), "]".repeat(100));
    round_trips(&parse_json(&shallow).unwrap());
    round_trips(&parse_toml(&format!("x = {shallow}")).unwrap());
}

/// A small campaign and its clean JSONL result stream.
fn clean_results() -> &'static (Campaign, String) {
    static CLEAN: OnceLock<(Campaign, String)> = OnceLock::new();
    CLEAN.get_or_init(|| {
        let campaign = Campaign::from_str(
            "[campaign]\nname = \"scan\"\nseed = 5\n\
             observables = [\"final_r\", \"mean_abs_gap\"]\n\
             [model]\nn = 6\npotential = \"desync\"\ncoupling = 2.0\n\
             [sim]\nt_end = 1.0\n\
             [[axes]]\nkey = \"model.sigma\"\nvalues = [0.5, 1.0, 2.0, 3.0, 4.0]\n",
        )
        .expect("scan campaign spec");
        let text = campaign.run_jsonl_string(1).expect("scan campaign runs");
        (campaign, text)
    })
}

/// The resume scan returns instead of panicking; whatever it keeps is a
/// prefix of the text that ends on a character boundary.
fn check_scan(text: &str) {
    if let Ok(out) = scan_completed_at(text, &clean_results().0.spec) {
        assert!(out.retain_len <= text.len() && text.is_char_boundary(out.retain_len));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn scan_of_arbitrary_text_never_panics(bytes in prop::collection::vec(byte(), 0..512)) {
        check_scan(&String::from_utf8_lossy(&bytes));
    }

    /// Mutations after the header reach the row handling: torn, corrupt
    /// and out-of-range rows.
    #[test]
    fn scan_of_mutated_results_never_panics(
        edits in prop::collection::vec((any::<usize>(), byte(), 0u8..3), 1..9),
    ) {
        check_scan(&mutate(&clean_results().1, &edits));
    }
}

/// A clean result file cut at every byte offset, as a crash mid-write
/// leaves it: the scan accepts it, keeps at most the cut, keeps whole
/// lines (or flags the one lost newline), and reports done exactly the
/// points whose whole row lies inside the cut.
#[test]
fn scan_of_a_cut_result_file_keeps_whole_rows() {
    let (campaign, text) = clean_results();
    // (point, end of its row without the newline) for each row line.
    let mut rows = Vec::new();
    let mut end = 0;
    for (k, line) in text.split_inclusive('\n').enumerate() {
        end += line.len();
        if k > 0 {
            let point = parse_json(line.trim())
                .unwrap()
                .get("point")
                .unwrap()
                .as_i64();
            rows.push((point.unwrap() as usize, end - 1));
        }
    }
    assert_eq!(rows.len(), campaign.total_points());

    for cut in (0..=text.len()).filter(|&c| text.is_char_boundary(c)) {
        let out = scan_completed_at(&text[..cut], &campaign.spec)
            .unwrap_or_else(|e| panic!("cut at {cut}: a torn tail is not corruption: {e}"));
        assert!(
            out.retain_len <= cut,
            "cut at {cut}: retained {}",
            out.retain_len
        );
        let kept = &text[..out.retain_len];
        assert!(
            kept.is_empty() || kept.ends_with('\n') || out.needs_newline,
            "cut at {cut}: retained prefix ends mid-line"
        );
        let whole: HashSet<usize> = rows
            .iter()
            .filter(|&&(_, row_end)| row_end <= cut)
            .map(|&(point, _)| point)
            .collect();
        assert_eq!(out.done, whole, "cut at {cut}");
    }
}

/// A valid job submission, the seed of the HTTP mutations.
fn post_jobs() -> Vec<u8> {
    let body = SEEDS[2];
    format!(
        "POST /jobs?priority=high&follow HTTP/1.1\r\nHost: localhost\r\n\
         Authorization: Bearer t0k\r\nContent-Type: application/toml\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Bytes that steer mutations into the request grammar's corners.
const HTTP_SYNTAX: &[u8] = b" \r\n:/?&=HTTP/1.02Content-Length0123456789\xff";

fn http_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        any::<u8>(),
        (0..HTTP_SYNTAX.len()).prop_map(|i| HTTP_SYNTAX[i])
    ]
}

/// The parser, fed from memory, returns one of the documented outcomes:
/// a request, a closed connection, a status the daemon answers with, or a
/// body shorter than its `Content-Length`.
fn check_request(bytes: &[u8]) {
    match read_request(bytes) {
        Ok(_) | Err(RequestError::Closed) | Err(RequestError::Bad(400 | 413 | 431 | 505, _)) => {}
        Err(RequestError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => {}
        Err(e) => panic!("{e:?} from {:?}", String::from_utf8_lossy(bytes)),
    }
}

/// The status a malformed request answers with.
fn status(bytes: &[u8]) -> u16 {
    match read_request(bytes) {
        Err(RequestError::Bad(status, _)) => status,
        other => panic!("expected a status, got {other:?}"),
    }
}

/// A string of `len` characters drawn from `alphabet`.
fn word(alphabet: &'static [u8], len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(0..alphabet.len(), len)
        .prop_map(move |ix| ix.iter().map(|&i| alphabet[i] as char).collect())
}

const URL_SAFE: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_.~";
const NAME: &[u8] = b"abcXYZ-";
const VALUE: &[u8] = b" abcXYZ019;,=/:.\"";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_bytes_are_a_request_or_a_documented_error(
        bytes in prop::collection::vec(http_byte(), 0..512),
    ) {
        check_request(&bytes);
    }

    #[test]
    fn mutated_requests_are_a_request_or_a_documented_error(
        edits in prop::collection::vec((any::<usize>(), http_byte(), 0u8..3), 1..9),
    ) {
        check_request(&mutate_bytes(&post_jobs(), &edits));
    }

    /// Method, path, query pairs, lower-cased headers with trimmed values,
    /// and body all come back as sent.
    #[test]
    fn well_formed_requests_round_trip(
        method in 0..4usize,
        path in prop::collection::vec(word(URL_SAFE, 1..8), 0..4),
        query in prop::collection::vec((word(URL_SAFE, 1..6), word(URL_SAFE, 0..6)), 0..4),
        headers in prop::collection::vec((word(NAME, 1..12), word(VALUE, 0..16)), 0..6),
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let method = ["GET", "POST", "DELETE", "PUT"][method];
        let path = format!("/{}", path.join("/"));
        let pairs: Vec<String> = query.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let mut raw = format!("{method} {path}?{} HTTP/1.1\r\n", pairs.join("&")).into_bytes();
        for (name, value) in &headers {
            raw.extend_from_slice(format!("{name}:{value}\r\n").as_bytes());
        }
        raw.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
        raw.extend_from_slice(&body);

        let req: Request = read_request(&raw[..]).unwrap();
        let mut want_headers: Vec<(String, String)> = headers
            .iter()
            .map(|(n, v)| (n.to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        want_headers.push(("content-length".into(), body.len().to_string()));
        prop_assert_eq!(req.method, method);
        prop_assert_eq!(req.path, path);
        prop_assert_eq!(req.query, query);
        prop_assert_eq!(req.headers, want_headers);
        prop_assert_eq!(req.body, body);
    }
}

#[test]
fn seed_request_parses() {
    let req = read_request(&post_jobs()[..]).unwrap();
    assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/jobs"));
    assert_eq!(req.token(), Some("t0k"));
    assert_eq!(req.body, SEEDS[2].as_bytes());
}

#[test]
fn line_longer_than_max_line_is_431() {
    let long = "a".repeat(MAX_LINE);
    assert_eq!(
        status(format!("GET /{long} HTTP/1.1\r\n\r\n").as_bytes()),
        431
    );
    assert_eq!(
        status(format!("GET / HTTP/1.1\r\nX-Long: {long}\r\n\r\n").as_bytes()),
        431
    );
    // A shorter line cut off by end of input is a truncated request.
    assert_eq!(status(b"GET / HTTP/1.1\r\nHost: x"), 400);
    assert_eq!(status(b"GET / HTTP/1.1"), 400);
    // A line of exactly MAX_LINE bytes, newline included, is accepted.
    let fits = "a".repeat(MAX_LINE - "GET / HTTP/1.1\r\n".len());
    assert!(read_request(format!("GET /{fits} HTTP/1.1\r\n\r\n").as_bytes()).is_ok());
}

#[test]
fn more_than_max_headers_is_431() {
    let with = |k: usize| format!("GET / HTTP/1.1\r\n{}\r\n", "X-A: 1\r\n".repeat(k));
    assert_eq!(
        read_request(with(MAX_HEADERS).as_bytes())
            .unwrap()
            .headers
            .len(),
        MAX_HEADERS
    );
    assert_eq!(status(with(MAX_HEADERS + 1).as_bytes()), 431);
}

/// Fails the test if the parser reads past the request head.
struct NoBody;

impl Read for NoBody {
    fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
        panic!("the parser read the body of an oversized request")
    }
}

#[test]
fn content_length_over_max_body_is_413_before_the_body_is_read() {
    let head = format!(
        "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY + 1
    );
    match read_request(head.as_bytes().chain(NoBody)) {
        Err(RequestError::Bad(413, _)) => {}
        other => panic!("expected 413, got {other:?}"),
    }
    // At the limit itself the parser goes on to read the body.
    let head = format!("POST /jobs HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\n\r\n");
    match read_request(head.as_bytes()) {
        Err(RequestError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
        other => panic!("expected a short body, got {other:?}"),
    }
}

#[test]
fn non_numeric_content_length_is_400() {
    for value in ["12x", "-1", "", "0x10"] {
        let head = format!("POST /jobs HTTP/1.1\r\nContent-Length: {value}\r\n\r\n");
        assert_eq!(status(head.as_bytes()), 400, "Content-Length `{value}`");
    }
}

#[test]
fn http_2_is_505() {
    assert_eq!(status(b"GET / HTTP/2.0\r\n\r\n"), 505);
}

#[test]
fn non_utf8_request_line_or_header_is_400() {
    assert_eq!(status(b"GET /jobs\xff HTTP/1.1\r\n\r\n"), 400);
    assert_eq!(status(b"GET /jobs HTTP/1.1\r\nX-Bad: \xfe\r\n\r\n"), 400);
}

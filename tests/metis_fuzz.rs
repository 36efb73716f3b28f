//! Ingestion fuzz for the METIS parser.
//!
//! Every quick-corpus instance is serialized with `write_metis` and then
//! damaged: byte flips, truncations, duplicated or deleted lines, digits
//! replaced by non-digits, and header counts inflated toward `usize::MAX`.
//! On every damaged document `parse_metis_reader` must return — `Ok` or a
//! typed `MetisError`, never a panic — and must return the same thing
//! whether it reads the document from one contiguous buffer or through a
//! 7-byte `BufReader` over a source that yields 3 bytes per `read`.
//!
//! Cases are drawn with the workspace's proptest shim, seeded from the
//! test name, so a failure reproduces exactly. Each kind of damage also
//! tallies its outcomes, so a suite whose mutations never reach the parser
//! body (every case refused at the header, say) fails instead of passing
//! vacuously.

use std::collections::BTreeSet;
use std::io::{BufReader, Read};
use std::sync::OnceLock;

use mmb_graph::io::{parse_metis_reader, write_metis, MetisError, MetisGraph};
use mmb_instances::corpus::Corpus;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Damaged documents per kind of damage; release builds run more.
const CASES: usize = if cfg!(debug_assertions) { 256 } else { 2048 };

/// The undamaged documents, one per quick-corpus entry.
fn docs() -> &'static [Vec<u8>] {
    static DOCS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    DOCS.get_or_init(|| {
        Corpus::quick()
            .entries()
            .iter()
            .map(|e| {
                let inst = &e.instance;
                write_metis(inst.graph(), inst.weights(), inst.costs()).into_bytes()
            })
            .collect()
    })
}

/// A reader that yields at most 3 bytes per `read` call.
struct Trickle<'a> {
    data: &'a [u8],
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = 3.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Parse `doc` whole and trickled; both must agree, result or error.
fn parse_both_ways(doc: &[u8]) -> Result<MetisGraph, MetisError> {
    let whole = parse_metis_reader(doc);
    let trickled = parse_metis_reader(BufReader::with_capacity(7, Trickle { data: doc }));
    match (&whole, &trickled) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.graph.num_vertices(), b.graph.num_vertices(), "n");
            assert_eq!(a.graph.edge_list(), b.graph.edge_list(), "edges");
            assert_eq!(bits(&a.weights), bits(&b.weights), "weights");
            assert_eq!(bits(&a.costs), bits(&b.costs), "costs");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "errors diverged"),
        (a, b) => panic!(
            "one reader failed: whole {:?} vs trickled {:?}",
            a.as_ref().err(),
            b.as_ref().err()
        ),
    }
    whole
}

/// What a fuzz run saw: documents that parsed, and the error variants.
#[derive(Debug, Default)]
struct Tally {
    parsed: usize,
    errors: BTreeSet<&'static str>,
}

fn variant(e: &MetisError) -> &'static str {
    match e {
        MetisError::BadHeader(_) => "BadHeader",
        MetisError::BadLine { .. } => "BadLine",
        MetisError::EdgeCountMismatch { .. } => "EdgeCountMismatch",
        MetisError::AsymmetricAdjacency { .. } => "AsymmetricAdjacency",
        MetisError::TrailingContent { .. } => "TrailingContent",
        MetisError::ImplausibleHeader { .. } => "ImplausibleHeader",
    }
}

/// Damage `CASES` corpus documents with `damage` and parse each both ways.
fn fuzz(name: &str, damage: impl Fn(&mut TestRng, &[u8]) -> Vec<u8>) -> Tally {
    let mut rng = TestRng::from_name(name);
    let mut tally = Tally::default();
    for _ in 0..CASES {
        let doc = &docs()[(0..docs().len()).generate(&mut rng)];
        match parse_both_ways(&damage(&mut rng, doc)) {
            Ok(_) => tally.parsed += 1,
            Err(e) => {
                tally.errors.insert(variant(&e));
            }
        }
    }
    tally
}

/// A position in `0..len`.
fn pick(rng: &mut TestRng, len: usize) -> usize {
    (0..len).generate(rng)
}

fn lines(doc: &[u8]) -> Vec<Vec<u8>> {
    doc.split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect()
}

#[test]
fn byte_flips() {
    let tally = fuzz("byte_flips", |rng, doc| {
        let mut doc = doc.to_vec();
        for _ in 0..(1usize..5).generate(rng) {
            let i = pick(rng, doc.len());
            doc[i] ^= (1u8..=255).generate(rng);
        }
        doc
    });
    assert!(tally.parsed > 0, "{tally:?}");
    assert!(tally.errors.len() >= 3, "{tally:?}");
}

#[test]
fn truncations() {
    let tally = fuzz("truncations", |rng, doc| {
        doc[..pick(rng, doc.len() + 1)].to_vec()
    });
    assert!(tally.errors.len() >= 2, "{tally:?}");
}

#[test]
fn duplicated_or_deleted_lines() {
    let tally = fuzz("duplicated_or_deleted_lines", |rng, doc| {
        let mut ls = lines(doc);
        for _ in 0..(1usize..4).generate(rng) {
            if ls.is_empty() {
                break;
            }
            let i = pick(rng, ls.len());
            if any::<bool>().generate(rng) {
                let line = ls[i].clone();
                ls.insert(i, line);
            } else {
                ls.remove(i);
            }
        }
        ls.concat()
    });
    assert!(tally.errors.len() >= 2, "{tally:?}");
}

/// Bytes a digit may be replaced by: letters, signs, separators, a NUL,
/// and bytes that break UTF-8.
const NON_DIGITS: &[u8] = b"-+.eExXaZ% \t\r\n#\0\xff\xc3";

#[test]
fn non_digits() {
    let tally = fuzz("non_digits", |rng, doc| {
        let mut doc = doc.to_vec();
        let digits: Vec<usize> = (0..doc.len())
            .filter(|&i| doc[i].is_ascii_digit())
            .collect();
        for _ in 0..(1usize..4).generate(rng) {
            doc[digits[pick(rng, digits.len())]] = NON_DIGITS[pick(rng, NON_DIGITS.len())];
        }
        doc
    });
    assert!(tally.parsed > 0, "{tally:?}");
    assert!(tally.errors.len() >= 2, "{tally:?}");
}

#[test]
fn inflated_header_counts() {
    // Header fields: n, m, fmt, ncon. Set n, m or ncon to
    // `usize::MAX >> shift` less a little: small shifts sit at the top of
    // the range, large ones near the real counts.
    let tally = fuzz("inflated_header_counts", |rng, doc| {
        let mut ls = lines(doc);
        let header = String::from_utf8(ls[0].clone()).expect("written headers are ASCII");
        let mut fields: Vec<String> = header.split_whitespace().map(str::to_owned).collect();
        let slot = [0, 1, 3][pick(rng, 3)];
        let value = (usize::MAX >> (0u32..64).generate(rng)).saturating_sub(pick(rng, 3));
        fields[slot] = value.to_string();
        ls[0] = format!("{}\n", fields.join(" ")).into_bytes();
        let damaged = ls.concat();
        // A vertex or edge count above the document's size is refused
        // before anything is allocated for it.
        if slot < 2 && value > doc.len() {
            let parsed = parse_metis_reader(damaged.as_slice());
            assert!(
                matches!(parsed, Err(MetisError::ImplausibleHeader { declared, .. }) if declared == value),
                "declared {value}: {parsed:?}"
            );
        }
        damaged
    });
    assert!(tally.errors.contains("ImplausibleHeader"), "{tally:?}");
    assert!(tally.errors.len() >= 2, "{tally:?}");
}

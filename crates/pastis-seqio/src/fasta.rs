//! FASTA parsing/writing and the in-memory sequence store.
//!
//! The PASTIS input is "a file in FASTA format (a very common file format
//! in bioinformatics)"; sequences are read once, encoded, and held in
//! memory for the whole search. [`SeqStore`] is that in-memory form:
//! residue-coded sequences plus ids, the structure every other crate
//! aligns and indexes against.

use std::fmt;
use std::io::{BufRead, Write};

use pastis_align::matrices::{aa_code, decode};

/// One FASTA record: header id, optional description, raw residue letters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaRecord {
    /// The id: header text up to the first whitespace.
    pub id: String,
    /// The rest of the header line, if any.
    pub desc: Option<String>,
    /// Residue letters (possibly multi-line in the file, joined here).
    pub seq: String,
}

/// Errors from FASTA parsing or encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FastaError {
    /// Sequence data appeared before any `>` header.
    DataBeforeHeader {
        /// 1-based line number.
        line: usize,
    },
    /// A header introduced a record that has no sequence lines.
    EmptyRecord {
        /// The record id.
        id: String,
    },
    /// A residue letter outside the amino-acid alphabet.
    InvalidResidue {
        /// The record id.
        id: String,
        /// The offending byte.
        byte: u8,
    },
    /// A record exceeded the streaming reader's per-record byte bound.
    RecordTooLarge {
        /// The record id.
        id: String,
        /// The configured bound in bytes.
        limit: usize,
    },
    /// The input holds more than 2³² sequences: ids travel the pipeline
    /// as `u32`.
    TooManySequences,
    /// Underlying I/O failure.
    Io(String),
}

impl fmt::Display for FastaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FastaError::DataBeforeHeader { line } => {
                write!(f, "sequence data before any '>' header at line {line}")
            }
            FastaError::EmptyRecord { id } => write!(f, "record '{id}' has no sequence"),
            FastaError::InvalidResidue { id, byte } => write!(
                f,
                "invalid residue byte 0x{byte:02x} ('{}') in record '{id}'",
                *byte as char
            ),
            FastaError::RecordTooLarge { id, limit } => {
                write!(f, "record '{id}' exceeds the {limit}-byte record bound")
            }
            FastaError::TooManySequences => write!(
                f,
                "more than 2^32 sequences: the pipeline's pair tasks, similarity \
                 edges, and load-balance parity all carry u32 ids — shard the input \
                 across ranks instead of growing one store past 2^32 sequences"
            ),
            FastaError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for FastaError {}

impl From<std::io::Error> for FastaError {
    fn from(e: std::io::Error) -> Self {
        FastaError::Io(e.to_string())
    }
}

/// Streaming FASTA reader: an iterator yielding one [`FastaRecord`] at a
/// time, so ingestion memory is bounded by the largest single record (plus
/// one line buffer) instead of the whole file. Handles multi-line
/// sequences, CRLF line endings, blank lines, and lowercase residues —
/// identical accept/reject behavior to [`parse_fasta`], which is now a
/// `collect()` over this stream.
///
/// An optional per-record byte bound ([`FastaStream::with_record_bound`])
/// turns a pathologically large record into a typed
/// [`FastaError::RecordTooLarge`] instead of unbounded growth — the
/// ingestion guard for `--mem-budget` runs.
pub struct FastaStream<R: BufRead> {
    reader: R,
    line: String,
    lineno: usize,
    /// Header of the next record, already consumed from the reader.
    pending: Option<(String, Option<String>)>,
    record_bound: Option<usize>,
    /// Set after an error or EOF: the stream yields nothing further.
    done: bool,
}

fn split_header(header: &str) -> (String, Option<String>) {
    let mut parts = header.splitn(2, char::is_whitespace);
    let id = parts.next().unwrap_or("").to_owned();
    let desc = parts
        .next()
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned);
    (id, desc)
}

impl<R: BufRead> FastaStream<R> {
    /// Stream records from `reader` with no per-record bound.
    pub fn new(reader: R) -> FastaStream<R> {
        FastaStream {
            reader,
            line: String::new(),
            lineno: 0,
            pending: None,
            record_bound: None,
            done: false,
        }
    }

    /// Fail any record whose accumulated residue letters exceed `bytes`.
    pub fn with_record_bound(mut self, bytes: usize) -> FastaStream<R> {
        self.record_bound = Some(bytes);
        self
    }

    /// Read the next line into the reused buffer; `Ok(None)` at EOF.
    fn read_line(&mut self) -> Result<Option<&str>, FastaError> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Ok(None);
        }
        self.lineno += 1;
        Ok(Some(self.line.trim_end_matches(['\r', '\n'])))
    }

    fn next_record(&mut self) -> Result<Option<FastaRecord>, FastaError> {
        // Find this record's header: carried over from the previous call,
        // or the first non-blank line of the stream.
        let (id, desc) = match self.pending.take() {
            Some(h) => h,
            None => loop {
                match self.read_line()? {
                    None => return Ok(None),
                    Some("") => continue,
                    Some(line) => match line.strip_prefix('>') {
                        Some(h) => break split_header(h),
                        None => return Err(FastaError::DataBeforeHeader { line: self.lineno }),
                    },
                }
            },
        };
        // Accumulate sequence lines until the next header or EOF.
        let mut seq = String::new();
        loop {
            match self.read_line()? {
                None => break,
                Some("") => continue,
                Some(line) => match line.strip_prefix('>') {
                    Some(h) => {
                        self.pending = Some(split_header(h));
                        break;
                    }
                    None => {
                        seq.push_str(line.trim());
                        if self.record_bound.is_some_and(|b| seq.len() > b) {
                            return Err(FastaError::RecordTooLarge {
                                id,
                                limit: self.record_bound.unwrap(),
                            });
                        }
                    }
                },
            }
        }
        if seq.is_empty() {
            return Err(FastaError::EmptyRecord { id });
        }
        Ok(Some(FastaRecord { id, desc, seq }))
    }
}

impl<R: BufRead> Iterator for FastaStream<R> {
    type Item = Result<FastaRecord, FastaError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_record() {
            Ok(Some(rec)) => Some(Ok(rec)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Parse all records from a reader. Handles multi-line sequences, CRLF
/// line endings, blank lines, and lowercase residues.
pub fn parse_fasta<R: BufRead>(reader: R) -> Result<Vec<FastaRecord>, FastaError> {
    FastaStream::new(reader).collect()
}

/// Write records in FASTA format, wrapping sequence lines at `width`
/// characters (0 = no wrapping).
pub fn write_fasta<W: Write>(
    mut w: W,
    records: &[FastaRecord],
    width: usize,
) -> std::io::Result<()> {
    for rec in records {
        match &rec.desc {
            Some(d) => writeln!(w, ">{} {}", rec.id, d)?,
            None => writeln!(w, ">{}", rec.id)?,
        }
        if width == 0 {
            writeln!(w, "{}", rec.seq)?;
        } else {
            for chunk in rec.seq.as_bytes().chunks(width) {
                w.write_all(chunk)?;
                writeln!(w)?;
            }
        }
    }
    Ok(())
}

fn encode_residues(id: &str, seq: &str) -> Result<Vec<u8>, FastaError> {
    let mut codes = Vec::with_capacity(seq.len());
    for b in seq.bytes() {
        match aa_code(b) {
            Some(c) => codes.push(c),
            None => {
                return Err(FastaError::InvalidResidue {
                    id: id.to_owned(),
                    byte: b,
                })
            }
        }
    }
    Ok(codes)
}

/// The in-memory dataset: residue-coded sequences plus their ids.
///
/// Sequence ids are dense `0..len()` and travel the rest of the pipeline
/// as `u32` (block-local SUMMA coordinates, pair tasks, similarity edges,
/// TSV dedup keys). [`SeqStore::push`] therefore refuses to grow a store
/// past `u32::MAX + 1` sequences (the FASTA constructors return
/// [`FastaError::TooManySequences`] instead), which makes every downstream
/// `as u32` narrowing of a store index provably lossless.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeqStore {
    ids: Vec<String>,
    seqs: Vec<Vec<u8>>,
}

/// The id the next pushed sequence would get, checked against the `u32`
/// id space the pipeline uses. Factored out of [`SeqStore::push`] so the
/// 2³²-edge boundary can be tested directly: a real store at the edge
/// carries ~2³² heap vectors of bookkeeping, far past what a test can
/// allocate, but every `push` routes through this seam unconditionally.
#[inline]
fn checked_seq_id(next: usize) -> Result<u32, FastaError> {
    u32::try_from(next).map_err(|_| FastaError::TooManySequences)
}

impl SeqStore {
    /// An empty store.
    pub fn new() -> SeqStore {
        SeqStore::default()
    }

    /// Build from parsed FASTA records, encoding residues.
    pub fn from_records(records: &[FastaRecord]) -> Result<SeqStore, FastaError> {
        let mut store = SeqStore::new();
        for rec in records {
            checked_seq_id(store.len())?;
            let codes = encode_residues(&rec.id, &rec.seq)?;
            store.push(rec.id.clone(), codes);
        }
        Ok(store)
    }

    /// Build by draining a record stream, encoding each record as it
    /// arrives and dropping its letters immediately — at any moment the
    /// transient footprint beyond the store itself is one record. This is
    /// the bounded ingestion path behind `--mem-budget`.
    pub fn from_fasta_stream<R: BufRead>(stream: FastaStream<R>) -> Result<SeqStore, FastaError> {
        let mut store = SeqStore::new();
        for rec in stream {
            let rec = rec?;
            checked_seq_id(store.len())?;
            let codes = encode_residues(&rec.id, &rec.seq)?;
            store.push(rec.id, codes);
        }
        Ok(store)
    }

    /// Append a sequence, returning the dense id it was assigned.
    ///
    /// # Panics
    ///
    /// Panics if the new sequence's id would not fit in `u32` — the id
    /// type the rest of the pipeline narrows to.
    pub fn push(&mut self, id: String, codes: Vec<u8>) -> u32 {
        let seq_id = checked_seq_id(self.ids.len()).unwrap_or_else(|e| panic!("{e}"));
        self.ids.push(id);
        self.seqs.push(codes);
        seq_id
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Residue codes of sequence `i`.
    pub fn seq(&self, i: usize) -> &[u8] {
        &self.seqs[i]
    }

    /// Id of sequence `i`.
    pub fn id(&self, i: usize) -> &str {
        &self.ids[i]
    }

    /// Length of sequence `i`.
    pub fn seq_len(&self, i: usize) -> usize {
        self.seqs[i].len()
    }

    /// Total residues across the store.
    pub fn total_residues(&self) -> usize {
        self.seqs.iter().map(Vec::len).sum()
    }

    /// Mean sequence length (0 for an empty store).
    pub fn mean_len(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.total_residues() as f64 / self.len() as f64
        }
    }

    /// Convert back to FASTA records (decoding residue codes).
    pub fn to_records(&self) -> Vec<FastaRecord> {
        (0..self.len())
            .map(|i| FastaRecord {
                id: self.ids[i].clone(),
                desc: None,
                seq: decode(&self.seqs[i]),
            })
            .collect()
    }

    /// A sub-store with the sequences at `indices` (in that order) —
    /// used to carve per-rank partitions and test subsets.
    pub fn subset(&self, indices: &[usize]) -> SeqStore {
        let mut out = SeqStore::new();
        for &i in indices {
            out.push(self.ids[i].clone(), self.seqs[i].clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE: &str = ">seq1 first protein\nMKVLAW\nYHEE\n\n>seq2\nPAWHEAE\n";

    #[test]
    fn push_assigns_dense_u32_ids() {
        let mut s = SeqStore::new();
        assert_eq!(s.push("a".into(), vec![0]), 0);
        assert_eq!(s.push("b".into(), vec![1]), 1);
        assert_eq!(s.push("c".into(), vec![2]), 2);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn seq_id_boundary_holds_at_the_u32_edge() {
        // Largest valid id: exactly u32::MAX (a store of 2^32 sequences).
        assert_eq!(checked_seq_id(u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(checked_seq_id(0), Ok(0));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn seq_id_past_the_u32_edge_is_rejected() {
        // The 2^32-th id (index 2^32) is the first that cannot narrow.
        let err = checked_seq_id(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(err, FastaError::TooManySequences);
        assert!(err.to_string().contains("2^32 sequences"), "{err}");
    }

    #[test]
    fn parse_multiline_and_descriptions() {
        let recs = parse_fasta(Cursor::new(SAMPLE)).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, "seq1");
        assert_eq!(recs[0].desc.as_deref(), Some("first protein"));
        assert_eq!(recs[0].seq, "MKVLAWYHEE");
        assert_eq!(recs[1].id, "seq2");
        assert_eq!(recs[1].desc, None);
        assert_eq!(recs[1].seq, "PAWHEAE");
    }

    #[test]
    fn parse_crlf() {
        let recs = parse_fasta(Cursor::new(">a x\r\nMKV\r\nLAW\r\n")).unwrap();
        assert_eq!(recs[0].seq, "MKVLAW");
        assert_eq!(recs[0].desc.as_deref(), Some("x"));
    }

    #[test]
    fn data_before_header_is_an_error() {
        let err = parse_fasta(Cursor::new("MKV\n>a\nMKV\n")).unwrap_err();
        assert!(matches!(err, FastaError::DataBeforeHeader { line: 1 }));
    }

    #[test]
    fn empty_record_is_an_error() {
        let err = parse_fasta(Cursor::new(">a\n>b\nMKV\n")).unwrap_err();
        assert!(matches!(err, FastaError::EmptyRecord { .. }));
        // Trailing empty record too.
        let err = parse_fasta(Cursor::new(">a\nMKV\n>b\n")).unwrap_err();
        assert!(matches!(err, FastaError::EmptyRecord { .. }));
    }

    #[test]
    fn empty_input_yields_no_records() {
        assert_eq!(parse_fasta(Cursor::new("")).unwrap().len(), 0);
        assert_eq!(parse_fasta(Cursor::new("\n\n")).unwrap().len(), 0);
    }

    #[test]
    fn write_parse_roundtrip() {
        let recs = parse_fasta(Cursor::new(SAMPLE)).unwrap();
        for width in [0usize, 3, 80] {
            let mut buf = Vec::new();
            write_fasta(&mut buf, &recs, width).unwrap();
            let back = parse_fasta(Cursor::new(buf)).unwrap();
            assert_eq!(back, recs, "width={width}");
        }
    }

    #[test]
    fn store_encodes_and_reports() {
        let recs = parse_fasta(Cursor::new(SAMPLE)).unwrap();
        let store = SeqStore::from_records(&recs).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.seq_len(0), 10);
        assert_eq!(store.total_residues(), 17);
        assert!((store.mean_len() - 8.5).abs() < 1e-12);
        assert_eq!(store.id(1), "seq2");
        // Codes round-trip through decode.
        assert_eq!(store.to_records()[0].seq, "MKVLAWYHEE");
    }

    #[test]
    fn store_rejects_invalid_residue() {
        let recs = vec![FastaRecord {
            id: "bad".into(),
            desc: None,
            seq: "MK1".into(),
        }];
        let err = SeqStore::from_records(&recs).unwrap_err();
        assert!(matches!(err, FastaError::InvalidResidue { byte: b'1', .. }));
    }

    #[test]
    fn store_accepts_lowercase_and_ambiguity() {
        let recs = vec![FastaRecord {
            id: "ok".into(),
            desc: None,
            seq: "mkvBZX*".into(),
        }];
        let store = SeqStore::from_records(&recs).unwrap();
        assert_eq!(store.seq_len(0), 7);
    }

    #[test]
    fn subset_preserves_order() {
        let recs = parse_fasta(Cursor::new(SAMPLE)).unwrap();
        let store = SeqStore::from_records(&recs).unwrap();
        let sub = store.subset(&[1, 0]);
        assert_eq!(sub.id(0), "seq2");
        assert_eq!(sub.id(1), "seq1");
    }

    #[test]
    fn mean_len_empty_store() {
        assert_eq!(SeqStore::new().mean_len(), 0.0);
    }

    #[test]
    fn stream_yields_records_one_at_a_time() {
        let mut stream = FastaStream::new(Cursor::new(SAMPLE));
        let r1 = stream.next().unwrap().unwrap();
        assert_eq!(r1.id, "seq1");
        assert_eq!(r1.seq, "MKVLAWYHEE");
        let r2 = stream.next().unwrap().unwrap();
        assert_eq!(r2.id, "seq2");
        assert!(stream.next().is_none());
        // Fused: keeps returning None.
        assert!(stream.next().is_none());
    }

    #[test]
    fn stream_matches_batch_parser_on_errors() {
        for input in ["MKV\n>a\nMKV\n", ">a\n>b\nMKV\n", ">a\nMKV\n>b\n"] {
            let batch = parse_fasta(Cursor::new(input)).unwrap_err();
            let streamed = FastaStream::new(Cursor::new(input))
                .collect::<Result<Vec<_>, _>>()
                .unwrap_err();
            assert_eq!(batch, streamed, "input {input:?}");
        }
        // Errors fuse the stream too.
        let mut s = FastaStream::new(Cursor::new("MKV\n>a\nMKV\n"));
        assert!(s.next().unwrap().is_err());
        assert!(s.next().is_none());
    }

    #[test]
    fn stream_record_bound_rejects_oversized_records() {
        let input = ">big\nMKVLAW\nYHEE\n>small\nMKV\n";
        let err = FastaStream::new(Cursor::new(input))
            .with_record_bound(8)
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(
            matches!(&err, FastaError::RecordTooLarge { id, limit: 8 } if id == "big"),
            "{err:?}"
        );
        // A bound at least as large as every record accepts the input.
        let recs = FastaStream::new(Cursor::new(input))
            .with_record_bound(10)
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn store_from_stream_matches_batch_path() {
        let batch = SeqStore::from_records(&parse_fasta(Cursor::new(SAMPLE)).unwrap()).unwrap();
        let streamed = SeqStore::from_fasta_stream(FastaStream::new(Cursor::new(SAMPLE))).unwrap();
        assert_eq!(batch, streamed);
    }
}

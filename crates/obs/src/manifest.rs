//! Run provenance: what ran, over which exact bytes, producing what.
//!
//! A [`RunManifest`] records the subcommand, its normalized arguments,
//! the seed and thread count, content hashes of every input file read
//! and artifact written, and the crate versions that produced them. It
//! renders two ways:
//!
//! * the **full** manifest ([`RunManifest::to_json`]) embedded in every
//!   `--metrics-out` document — includes outputs, outcome and thread
//!   count (thread count is execution shape, so the redacted rendering
//!   zeroes it);
//! * the **portable** manifest ([`RunManifest::to_embedded_json`])
//!   embedded in a TMA0 artifact's `PROV` section — only the fields
//!   that describe *what the artifact is* (schema, subcommand, args,
//!   seed, input hashes, crate versions), never where it was written or
//!   how many threads fit it, so artifact bytes stay invariant across
//!   thread counts and output paths.
//!
//! Files are stamped with FNV-1a 64 ([`fnv1a64_file`]) — a dependency-
//! free, endianness-free content hash that is stable across platforms.
//! It is an integrity check for provenance, not a cryptographic seal.
//!
//! Pipeline code reports the files it touches through the process-wide
//! [`record_input`] / [`record_output`] collectors; the CLI drains them
//! ([`recorded_inputs`], [`recorded_outputs`]) when it assembles the
//! manifest at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Read as _;
use std::sync::Mutex;

/// Version of the manifest JSON layout. Bump on any field change.
pub const MANIFEST_SCHEMA_VERSION: u32 = 1;

/// A content stamp of one file: path as given, size, FNV-1a 64 hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStamp {
    /// The path exactly as the run referred to it.
    pub path: String,
    /// File size in bytes.
    pub bytes: u64,
    /// FNV-1a 64 content hash, 16 lowercase hex digits.
    pub fnv1a64: String,
}

impl FileStamp {
    /// Stamps the file at `path` by streaming its contents.
    ///
    /// # Errors
    ///
    /// Any I/O error opening or reading the file.
    pub fn of_file(path: &str) -> std::io::Result<Self> {
        let (bytes, hash) = fnv1a64_file(path)?;
        Ok(Self {
            path: path.to_string(),
            bytes,
            fnv1a64: format!("{hash:016x}"),
        })
    }

    fn render(&self, out: &mut String, indent: usize) {
        let _ = write!(
            out,
            "{:indent$}{{\"bytes\": {}, \"fnv1a64\": \"{}\", \"path\": \"{}\"}}",
            "",
            self.bytes,
            crate::json::escape(&self.fnv1a64),
            crate::json::escape(&self.path),
        );
    }
}

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte slice.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Streams a file through FNV-1a 64, returning `(size, hash)`.
///
/// # Errors
///
/// Any I/O error opening or reading the file.
pub fn fnv1a64_file(path: &str) -> std::io::Result<(u64, u64)> {
    let mut file = std::fs::File::open(path)?;
    let mut hash = FNV_OFFSET;
    let mut size = 0u64;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        size += n as u64;
        for &b in &buf[..n] {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    Ok((size, hash))
}

/// Provenance of one pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunManifest {
    /// The subcommand that ran (e.g. `"fit"`).
    pub subcommand: String,
    /// Normalized argument list: positionals in order, then sorted
    /// `--flag=value` pairs, then sorted switches, with output-routing
    /// flags (`--metrics-out`, `--trace-out`, `--threads`, ...)
    /// excluded — those describe the observation, not the computation.
    pub args: Vec<String>,
    /// The generator seed, when the run took one.
    pub seed: Option<u64>,
    /// Resolved worker-thread count. Execution shape: zeroed under
    /// redaction and absent from the portable rendering.
    pub threads: u64,
    /// `"ok"` or `"error"`.
    pub outcome: String,
    /// Every input file the run read, stamped.
    pub inputs: Vec<FileStamp>,
    /// Every artifact the run wrote, stamped. Absent from the portable
    /// rendering (an artifact cannot contain its own hash).
    pub outputs: Vec<FileStamp>,
    /// Workspace crate versions, by crate name.
    pub crates: BTreeMap<String, String>,
}

impl RunManifest {
    /// The full manifest as a standalone JSON document. Under `redact`
    /// the thread count is zeroed (it is the one execution-shape field
    /// here; hashes and args are deterministic already).
    #[must_use]
    pub fn to_json(&self, redact: bool) -> String {
        let mut out = self.render(redact, false, 0);
        out.push('\n');
        out
    }

    /// The portable manifest for embedding in an artifact: schema,
    /// subcommand, args, seed, input stamps and crate versions only —
    /// no outputs, outcome or thread count, so the same fit produces
    /// byte-identical artifacts at every thread count and output path.
    #[must_use]
    pub fn to_embedded_json(&self) -> String {
        self.render(false, true, 0)
    }

    /// Renders at `indent` spaces of base indentation (used by the
    /// registry to splice the manifest into the metrics document).
    #[must_use]
    pub(crate) fn render(&self, redact: bool, portable: bool, indent: usize) -> String {
        let pad = indent;
        let inner = indent + 2;
        let mut out = String::from("{\n");
        // args
        let _ = write!(out, "{:inner$}\"args\": [", "");
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", crate::json::escape(a));
        }
        out.push_str("],\n");
        // crates
        let _ = write!(out, "{:inner$}\"crates\": {{", "");
        for (i, (name, version)) in self.crates.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": \"{}\"",
                crate::json::escape(name),
                crate::json::escape(version),
            );
        }
        out.push_str("},\n");
        // inputs
        let _ = write!(out, "{:inner$}\"inputs\": [", "");
        render_stamps(&mut out, &self.inputs, inner);
        out.push_str(",\n");
        if !portable {
            let _ = writeln!(
                out,
                "{:inner$}\"outcome\": \"{}\",",
                "",
                crate::json::escape(&self.outcome)
            );
            let _ = write!(out, "{:inner$}\"outputs\": [", "");
            render_stamps(&mut out, &self.outputs, inner);
            out.push_str(",\n");
        }
        let _ = writeln!(
            out,
            "{:inner$}\"schema_version\": {},",
            "", MANIFEST_SCHEMA_VERSION
        );
        match self.seed {
            Some(seed) => {
                let _ = writeln!(out, "{:inner$}\"seed\": {seed},", "");
            }
            None => {
                let _ = writeln!(out, "{:inner$}\"seed\": null,", "");
            }
        }
        let _ = write!(
            out,
            "{:inner$}\"subcommand\": \"{}\"",
            "",
            crate::json::escape(&self.subcommand)
        );
        if !portable {
            let shown = if redact { 0 } else { self.threads };
            let _ = write!(out, ",\n{:inner$}\"threads\": {shown}", "");
        }
        let _ = write!(out, "\n{:pad$}}}", "");
        out
    }
}

fn render_stamps(out: &mut String, stamps: &[FileStamp], inner: usize) {
    if stamps.is_empty() {
        out.push(']');
        return;
    }
    for (i, stamp) in stamps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        stamp.render(out, inner + 2);
    }
    let _ = write!(out, "\n{:inner$}]", "");
}

/// Paths reported by pipeline code, drained when the manifest is built.
static RECORDED_INPUTS: Mutex<Vec<String>> = Mutex::new(Vec::new());
static RECORDED_OUTPUTS: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn push_unique(store: &Mutex<Vec<String>>, path: &str) {
    let mut paths = store
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if !paths.iter().any(|p| p == path) {
        paths.push(path.to_string());
    }
}

/// Reports that the running pipeline read the file at `path`. Duplicate
/// reports of the same path collapse to one.
pub fn record_input(path: &str) {
    push_unique(&RECORDED_INPUTS, path);
}

/// Reports that the running pipeline wrote an artifact at `path`.
pub fn record_output(path: &str) {
    push_unique(&RECORDED_OUTPUTS, path);
}

/// Every input path reported so far, in first-report order.
#[must_use]
pub fn recorded_inputs() -> Vec<String> {
    RECORDED_INPUTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Every output path reported so far, in first-report order.
#[must_use]
pub fn recorded_outputs() -> Vec<String> {
    RECORDED_OUTPUTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Clears the recorded input/output paths (test isolation).
pub fn clear_recorded() {
    RECORDED_INPUTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
    RECORDED_OUTPUTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn file_hash_matches_slice_hash() {
        let dir = std::env::temp_dir().join("tweetmob-obs-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stamp.bin");
        let payload = b"tweetmob provenance payload";
        std::fs::write(&path, payload).unwrap();
        let path = path.to_str().unwrap();
        let (size, hash) = fnv1a64_file(path).unwrap();
        assert_eq!(size, payload.len() as u64);
        assert_eq!(hash, fnv1a64(payload));
        let stamp = FileStamp::of_file(path).unwrap();
        assert_eq!(stamp.bytes, size);
        assert_eq!(stamp.fnv1a64, format!("{hash:016x}"));
    }

    fn sample() -> RunManifest {
        RunManifest {
            subcommand: "fit".into(),
            args: vec!["data.jsonl".into(), "--scale=national".into()],
            seed: Some(42),
            threads: 8,
            outcome: "ok".into(),
            inputs: vec![FileStamp {
                path: "data.jsonl".into(),
                bytes: 10,
                fnv1a64: "00000000000000aa".into(),
            }],
            outputs: vec![FileStamp {
                path: "m.tma".into(),
                bytes: 20,
                fnv1a64: "00000000000000bb".into(),
            }],
            crates: [("tweetmob-obs".to_string(), "0.1.0".to_string())].into(),
        }
    }

    #[test]
    fn full_rendering_carries_everything_redaction_zeroes_threads() {
        let m = sample();
        let full = m.to_json(false);
        for needle in [
            "\"subcommand\": \"fit\"",
            "\"seed\": 42",
            "\"threads\": 8",
            "\"outcome\": \"ok\"",
            "\"path\": \"m.tma\"",
            "\"fnv1a64\": \"00000000000000aa\"",
            "\"tweetmob-obs\": \"0.1.0\"",
        ] {
            assert!(full.contains(needle), "missing {needle} in {full}");
        }
        let redacted = m.to_json(true);
        assert!(redacted.contains("\"threads\": 0"));
        // Threads is the only field redaction touches.
        assert_eq!(full.replace("\"threads\": 8", "\"threads\": 0"), redacted);
    }

    #[test]
    fn portable_rendering_is_thread_and_output_free() {
        let m = sample();
        let portable = m.to_embedded_json();
        assert!(portable.contains("\"subcommand\": \"fit\""));
        assert!(portable.contains("\"fnv1a64\": \"00000000000000aa\""));
        assert!(!portable.contains("threads"));
        assert!(!portable.contains("outputs"));
        assert!(!portable.contains("outcome"));
        assert!(!portable.contains("m.tma"));
        // Invariant under everything the portable form excludes.
        let mut other = m;
        other.threads = 1;
        other.outputs.clear();
        other.outcome = "error".into();
        assert_eq!(portable, other.to_embedded_json());
    }

    #[test]
    fn seedless_manifest_renders_null() {
        let mut m = sample();
        m.seed = None;
        assert!(m.to_json(false).contains("\"seed\": null"));
    }

    #[test]
    fn recorders_dedupe_and_drain() {
        clear_recorded();
        record_input("a.jsonl");
        record_input("a.jsonl");
        record_input("b.jsonl");
        record_output("out.tma");
        assert_eq!(recorded_inputs(), vec!["a.jsonl", "b.jsonl"]);
        assert_eq!(recorded_outputs(), vec!["out.tma"]);
        clear_recorded();
        assert!(recorded_inputs().is_empty());
        assert!(recorded_outputs().is_empty());
    }
}

//! SNAP-compatible edge-list I/O.
//!
//! The format is one `u v` (or `u v p`) pair per line, `#`-prefixed comment
//! lines ignored, arbitrary whitespace separators. Node ids are relabelled
//! densely in first-appearance order, so SNAP files with sparse ids load into
//! compact graphs — run the harness binaries against real SNAP downloads to
//! reproduce the paper on the original datasets.

use crate::cast::u32_of;
use crate::csr::{Graph, NodeId};
use crate::error::GraphError;
use crate::{DedupPolicy, GraphBuilder};
// smin-lint: allow(no-hash-iteration) -- relabel map below is lookup-only; ids follow first appearance
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// An edge list with dense node ids plus the mapping back to original labels.
#[derive(Clone, Debug, Default)]
pub struct EdgeList {
    /// Number of distinct nodes.
    pub n: usize,
    /// Directed pairs (as read; mirroring happens at build time).
    pub edges: Vec<(NodeId, NodeId, Option<f64>)>,
    /// `original_label[i]` is the label node `i` had in the input.
    pub original_label: Vec<u64>,
}

impl EdgeList {
    /// Builds a weighted graph: explicit per-line probabilities win, missing
    /// ones take `default_p`; undirected inputs mirror each pair.
    pub fn into_graph(self, directed: bool, default_p: f64) -> Result<Graph, GraphError> {
        let mut b = GraphBuilder::with_capacity(self.n, self.edges.len())
            .dedup_policy(DedupPolicy::KeepFirst);
        for (u, v, p) in self.edges {
            let p = p.unwrap_or(default_p);
            if directed {
                b.add_edge_p(u, v, p)?;
            } else {
                b.add_undirected_p(u, v, p)?;
            }
        }
        b.build()
    }
}

/// Extracts `(nodes, edges)` counts from a SNAP-style size comment such as
/// `# Nodes: 75879 Edges: 508837`. Counts are advisory (used only to pre-size
/// buffers), so anything unparsable yields `None` rather than an error.
fn snap_size_hint(comment: &str) -> Option<(usize, usize)> {
    let mut nodes = None;
    let mut edges = None;
    let mut it = comment.split_whitespace().peekable();
    while let Some(tok) = it.next() {
        let slot = match tok.trim_end_matches(':') {
            "Nodes" => &mut nodes,
            "Edges" => &mut edges,
            _ => continue,
        };
        if let Some(count) = it.peek().and_then(|next| next.parse::<usize>().ok()) {
            *slot = Some(count);
            it.next();
        }
    }
    Some((nodes?, edges?))
}

/// Parses an edge list from any reader.
///
/// SNAP-style size headers (`# Nodes: N Edges: M`) are recognized and used to
/// pre-size the interning map and edge buffer, so multi-million-edge SNAP
/// downloads parse without reallocation churn.
pub fn read_edge_list(reader: impl Read) -> Result<EdgeList, GraphError> {
    let reader = BufReader::new(reader);
    // smin-lint: allow(no-hash-iteration) -- entry-lookup only, never iterated
    let mut relabel: HashMap<u64, NodeId> = HashMap::new();
    let mut original_label: Vec<u64> = Vec::new();
    let mut edges = Vec::new();
    let mut sized = false;

    // smin-lint: allow(no-hash-iteration) -- entry-lookup only, never iterated
    let intern = |raw: u64, relabel: &mut HashMap<u64, NodeId>, labels: &mut Vec<u64>| -> NodeId {
        *relabel.entry(raw).or_insert_with(|| {
            let id: NodeId = u32_of(labels.len());
            labels.push(raw);
            id
        })
    };

    for (lineno, line) in reader.lines().enumerate() {
        // A line that is not UTF-8 means the file is not text at all (a
        // binary file that is not a `.smg` snapshot): report where.
        let line = line.map_err(|e| match e.kind() {
            std::io::ErrorKind::InvalidData => GraphError::Parse {
                line: lineno + 1,
                message: "not UTF-8 text".to_string(),
            },
            _ => e.into(),
        })?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            if !sized {
                if let Some((n_hint, m_hint)) = snap_size_hint(line) {
                    relabel.reserve(n_hint);
                    original_label.reserve(n_hint);
                    edges.reserve(m_hint);
                    sized = true;
                }
            }
            continue;
        }
        let mut it = line.split_whitespace();
        let parse_u64 = |tok: Option<&str>, what: &str| -> Result<u64, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: lineno + 1,
                message: format!("missing {what}"),
            })?
            .parse::<u64>()
            .map_err(|e| GraphError::Parse {
                line: lineno + 1,
                message: format!("bad {what}: {e}"),
            })
        };
        let u = parse_u64(it.next(), "source")?;
        let v = parse_u64(it.next(), "target")?;
        let p = match it.next() {
            Some(tok) => Some(tok.parse::<f64>().map_err(|e| GraphError::Parse {
                line: lineno + 1,
                message: format!("bad probability: {e}"),
            })?),
            None => None,
        };
        let u = intern(u, &mut relabel, &mut original_label);
        let v = intern(v, &mut relabel, &mut original_label);
        edges.push((u, v, p));
    }

    Ok(EdgeList {
        n: original_label.len(),
        edges,
        original_label,
    })
}

/// Reads an edge list from a file path.
pub fn read_edge_list_path(path: impl AsRef<Path>) -> Result<EdgeList, GraphError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file)
}

/// Writes a graph as a `u v p` edge list (dense ids), then flushes
/// `writer`: a buffered writer's last write error surfaces here instead of
/// being lost when the caller drops it.
pub fn write_edge_list(g: &Graph, mut writer: impl Write) -> Result<(), GraphError> {
    for (u, v, p) in g.edges() {
        writeln!(writer, "{u} {v} {p}")?;
    }
    writer.flush()?;
    Ok(())
}

/// Loads a graph from a file of either supported format, sniffing content
/// rather than trusting the extension: a `.smg` snapshot (magic
/// `\x89SMG\r\n\x1a\n`) or else a text edge list (directed, default
/// probability `default_p` where a line omits one).
pub fn load_auto(path: impl AsRef<Path>, default_p: f64) -> Result<Graph, GraphError> {
    let mut file = std::fs::File::open(path)?;
    let mut magic = [0u8; 8];
    let mut got = 0usize;
    while got < magic.len() {
        match file.read(&mut magic[got..]) {
            Ok(0) => break,
            Ok(k) => got += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    file.seek(SeekFrom::Start(0))?;
    let head = &magic[..got];
    if head == crate::store::SMG_MAGIC {
        crate::store::read_smg(BufReader::new(file))
    } else {
        read_edge_list(file)?.into_graph(true, default_p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_and_relabels() {
        let input = "# snap header\n10 20\n20 30\n10 30\n";
        let el = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(el.n, 3);
        assert_eq!(el.original_label, vec![10, 20, 30]);
        assert_eq!(el.edges.len(), 3);
        assert_eq!(el.edges[0], (0, 1, None));
    }

    #[test]
    fn parses_crlf_line_endings() {
        // Graphs arriving over the wire (or exported on Windows) terminate
        // lines with \r\n; the parser must treat them exactly like \n.
        let input = "# header\r\n0 1 0.25\r\n\r\n1 2\r\n";
        let el = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(el.n, 3);
        assert_eq!(el.edges.len(), 2);
        assert_eq!(el.edges[0], (0, 1, Some(0.25)));
        assert_eq!(el.edges[1], (1, 2, None));
    }

    #[test]
    fn skips_blank_and_whitespace_only_lines() {
        let input = "\n0 1\n   \n\t\n1 2\n\n";
        let el = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(el.edges.len(), 2);
        assert_eq!(el.n, 3);
    }

    #[test]
    fn skips_both_comment_styles_anywhere() {
        // SNAP uses '#', some Konect exports use '%'; comments may be
        // interleaved with data, not just a leading header block.
        let input = "# SNAP header\n% konect header\n0 1\n# mid-file note\n1 2\n% tail\n";
        let el = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(el.edges.len(), 2);
    }

    #[test]
    fn handles_tabs_and_repeated_separators() {
        let input = "0\t1\t0.5\n1   2\n";
        let el = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(el.edges[0], (0, 1, Some(0.5)));
        assert_eq!(el.edges[1], (1, 2, None));
    }

    #[test]
    fn missing_target_reports_line_number_with_crlf_and_comments() {
        // Line numbers must count comment and blank lines, so editors can
        // jump straight to the offending input line.
        let input = "# header\r\n0 1\r\n\r\n7\r\n";
        match read_edge_list(input.as_bytes()) {
            Err(GraphError::Parse { line, message }) => {
                assert_eq!(line, 4);
                assert!(message.contains("target"), "got: {message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn bad_probability_reports_line() {
        let input = "0 1 0.5\n1 2 banana\n";
        match read_edge_list(input.as_bytes()) {
            Err(GraphError::Parse { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("probability"), "got: {message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn negative_node_id_is_rejected() {
        let input = "-1 2\n";
        match read_edge_list(input.as_bytes()) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn comment_only_input_yields_empty_list() {
        let input = "# nothing but comments\r\n\r\n% and blanks\n";
        let el = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(el.n, 0);
        assert!(el.edges.is_empty());
    }

    #[test]
    fn parses_probabilities() {
        let input = "0 1 0.25\n1 2 0.5\n";
        let el = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(el.edges[0].2, Some(0.25));
        let g = el.into_graph(true, 0.1).unwrap();
        let (_, p) = g.out_edges(0).next().unwrap();
        assert_eq!(p, 0.25);
    }

    #[test]
    fn default_probability_fills_gaps() {
        let input = "0 1\n";
        let g = read_edge_list(input.as_bytes())
            .unwrap()
            .into_graph(true, 0.33)
            .unwrap();
        let (_, p) = g.out_edges(0).next().unwrap();
        assert_eq!(p, 0.33);
    }

    #[test]
    fn undirected_mirrors() {
        let input = "0 1\n";
        let g = read_edge_list(input.as_bytes())
            .unwrap()
            .into_graph(false, 1.0)
            .unwrap();
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn bad_line_reports_position() {
        let input = "0 1\nnot numbers\n";
        match read_edge_list(input.as_bytes()) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn snap_size_header_is_parsed_and_harmless() {
        // The canonical SNAP banner; counts only pre-size buffers, so a file
        // whose header over- or under-counts must still parse correctly.
        let input = "# Directed graph (each unordered pair of nodes is saved once)\n\
                     # Nodes: 4 Edges: 3\n10 20\n20 30\n10 30\n";
        let el = read_edge_list(input.as_bytes()).unwrap();
        assert_eq!(el.n, 3);
        assert_eq!(el.edges.len(), 3);
    }

    #[test]
    fn snap_size_hint_variants() {
        assert_eq!(
            snap_size_hint("# Nodes: 75879 Edges: 508837"),
            Some((75879, 508837))
        );
        assert_eq!(snap_size_hint("# Nodes: 5"), None);
        assert_eq!(snap_size_hint("# Edges: 5"), None);
        assert_eq!(snap_size_hint("# Nodes: banana Edges: 3"), None);
        assert_eq!(snap_size_hint("# FromNodeId ToNodeId"), None);
    }

    #[test]
    fn load_auto_sniffs_all_three_formats() {
        let g = read_edge_list("0 1 0.5\n1 2 0.25\n".as_bytes())
            .unwrap()
            .into_graph(true, 1.0)
            .unwrap();
        let dir = std::env::temp_dir().join("smin_io_load_auto");
        std::fs::create_dir_all(&dir).unwrap();

        // Deliberately misleading extensions: content sniffing must win.
        let text = dir.join("graph.smg");
        std::fs::write(&text, "0 1 0.5\n1 2 0.25\n").unwrap();
        let smg = dir.join("graph.txt");
        crate::store::write_smg_path(&g, &smg).unwrap();

        let want: Vec<_> = g.edges().collect();
        for path in [&text, &smg] {
            let loaded = load_auto(path, 1.0).unwrap();
            assert_eq!(loaded.edges().collect::<Vec<_>>(), want, "path {path:?}");
        }

        // The retired edge-dump binary: an 8-byte ASCII magic, `n` and `m`
        // as little-endian u64, then one `(u32, u32, f64)` record per edge.
        // It is no longer a graph format, so it fails as text at line 1.
        let dump = dir.join("graph.bin");
        let mut bytes = vec![0x53, 0x4d, 0x49, 0x4e, 0x47, 0x30, 0x30, 0x31];
        bytes.extend_from_slice(&3u64.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        for (u, v, p) in &want {
            bytes.extend_from_slice(&u.to_le_bytes());
            bytes.extend_from_slice(&v.to_le_bytes());
            bytes.extend_from_slice(&p.to_le_bytes());
        }
        std::fs::write(&dump, &bytes).unwrap();
        match load_auto(&dump, 1.0) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected a parse error at line 1, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_auto_short_file_falls_back_to_text() {
        // A file shorter than any magic must be treated as a text edge list.
        let dir = std::env::temp_dir().join("smin_io_load_auto_short");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.txt");
        std::fs::write(&path, "0 1\n").unwrap();
        let g = load_auto(&path, 0.5).unwrap();
        assert_eq!(g.m(), 1);
        let (_, p) = g.out_edges(0).next().unwrap();
        assert_eq!(p, 0.5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_utf8_line_reports_position() {
        let input = b"0 1\n1 \xff\n";
        match read_edge_list(&input[..]) {
            Err(GraphError::Parse { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("UTF-8"), "got: {message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn write_edge_list_reports_a_failed_flush() {
        // Accepts every write and fails the flush, as a buffered writer over
        // a full disk does: the error must reach the caller.
        struct FailingFlush;
        impl Write for FailingFlush {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        let g = read_edge_list("0 1 0.5\n".as_bytes())
            .unwrap()
            .into_graph(true, 1.0)
            .unwrap();
        match write_edge_list(&g, FailingFlush) {
            Err(GraphError::Io(msg)) => assert!(msg.contains("disk full"), "got: {msg}"),
            other => panic!("expected an i/o error, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip() {
        let input = "0 1 0.5\n1 2 0.25\n";
        let g = read_edge_list(input.as_bytes())
            .unwrap()
            .into_graph(true, 1.0)
            .unwrap();
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = read_edge_list(out.as_slice())
            .unwrap()
            .into_graph(true, 1.0)
            .unwrap();
        assert_eq!(g.n(), g2.n());
        assert_eq!(g.m(), g2.m());
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }
}

//! Plain-text table/series formatting and JSON result dumping.

use serde_json::Value;
use std::path::Path;

/// Formats rows as an aligned text table. The first row is the header.
pub fn format_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:<width$}", width = widths[i]));
        }
        out = out.trim_end().to_string();
        out.push('\n');
        if ri == 0 {
            for (i, w) in widths.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&"-".repeat(*w));
            }
            out.push('\n');
        }
    }
    out
}

/// Serializes `value` as pretty JSON under `dir/name.json`, creating `dir`.
pub fn write_json(dir: &str, name: &str, value: &Value) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = Path::new(dir).join(format!("{name}.json"));
    std::fs::write(&path, serde_json::to_string_pretty(value))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Convenience: `f64` with fixed decimals, or "N/A" when the flag is false
/// (Table 3's marker for ATEUC missing the threshold).
pub fn na_or(v: f64, ok: bool, decimals: usize) -> String {
    if ok {
        format!("{v:.decimals$}")
    } else {
        "N/A".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_columns() {
        let t = format_table(&[
            vec!["a".into(), "long-header".into()],
            vec!["xxxx".into(), "1".into()],
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     "));
        assert!(lines[1].starts_with("----"));
        assert!(lines[2].starts_with("xxxx"));
    }

    #[test]
    fn na_marker() {
        assert_eq!(na_or(12.3456, true, 1), "12.3");
        assert_eq!(na_or(12.3456, false, 1), "N/A");
    }

    #[test]
    fn empty_table() {
        assert_eq!(format_table(&[]), "");
    }

    #[test]
    fn json_roundtrip() {
        let dir = std::env::temp_dir().join("smin_bench_test");
        let dir = dir.to_str().unwrap();
        let v = serde_json::json!([1, 2, 3]);
        write_json(dir, "probe", &v).unwrap();
        let content = std::fs::read_to_string(format!("{dir}/probe.json")).unwrap();
        assert_eq!(serde_json::from_str(&content).unwrap(), v);
    }
}

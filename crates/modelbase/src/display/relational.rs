//! The relational display: "shows the properties of objects in tabular
//! form with variable column width and scrolling".

/// A table to display. Its cells are kept back to back in one string,
/// so a row costs no allocation of its own.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    /// Every data cell's text, row after row.
    cells: String,
    /// Per data cell, where its text ends in `cells`; each row has one
    /// cell per header.
    ends: Vec<usize>,
    rows: usize,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            ..Table::default()
        }
    }

    /// Appends a row; short rows are padded, long rows truncated to the
    /// header width.
    pub fn row(&mut self, cells: &[&str]) {
        for i in 0..self.headers.len() {
            self.cells
                .push_str(cells.get(i).copied().unwrap_or_default());
            self.ends.push(self.cells.len());
        }
        self.rows += 1;
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The cells of data row `r`.
    fn row_cells(&self, r: usize) -> impl Iterator<Item = &str> {
        let width = self.headers.len();
        (r * width..(r + 1) * width).map(move |k| {
            let start = k.checked_sub(1).map_or(0, |prev| self.ends[prev]);
            &self.cells[start..self.ends[k]]
        })
    }

    /// Renders rows `offset..offset+limit` (scrolling) with columns
    /// sized to their visible content, capped at `max_col` characters
    /// (variable column width).
    pub fn render_window(&self, offset: usize, limit: usize, max_col: usize) -> String {
        let max_col = max_col.max(2);
        let window = offset.min(self.rows)..offset.saturating_add(limit).min(self.rows);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for r in window.clone() {
            for (i, cell) in self.row_cells(r).enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        for w in &mut widths {
            *w = (*w).min(max_col);
        }
        let clip = |s: &str, w: usize| -> String {
            let n = s.chars().count();
            if n <= w {
                format!("{s}{}", " ".repeat(w - n))
            } else {
                let cut: String = s.chars().take(w.saturating_sub(1)).collect();
                format!("{cut}…")
            }
        };
        let mut out = String::new();
        let hdr: Vec<String> = self
            .headers
            .iter()
            .zip(&widths)
            .map(|(h, &w)| clip(h, w))
            .collect();
        out.push_str(&format!("| {} |\n", hdr.join(" | ")));
        let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        out.push_str(&format!("|-{}-|\n", rule.join("-+-")));
        for r in window.clone() {
            let cells = self.row_cells(r).zip(&widths).map(|(c, &w)| clip(c, w));
            out.push_str(&format!("| {} |\n", cells.collect::<Vec<_>>().join(" | ")));
        }
        if offset + window.len() < self.rows {
            out.push_str(&format!(
                "({} of {} rows shown; scroll for more)\n",
                window.len(),
                self.rows
            ));
        }
        out
    }

    /// Renders the whole table with a generous column cap.
    pub fn render(&self) -> String {
        self.render_window(0, self.rows, 40)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(&["object", "class", "justified by"]);
        t.row(&["InvitationRel", "DBPL_Rel", "mapInvitations"]);
        t.row(&["InvReceivRel", "NormalizedDBPL_Rel", "normalizeInvitations"]);
        t.row(&["ConsInvitation", "DBPL_Constructor", "normalizeInvitations"]);
        t
    }

    #[test]
    fn renders_aligned_columns() {
        let s = sample().render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5); // header + rule + 3 rows
        let widths: Vec<usize> = lines.iter().map(|l| l.chars().count()).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "aligned: {widths:?}"
        );
        assert!(s.contains("InvitationRel"));
    }

    #[test]
    fn scrolling_window() {
        let t = sample();
        let s = t.render_window(1, 1, 40);
        assert!(s.contains("InvReceivRel"));
        assert!(!s.contains("ConsInvitation"));
        assert!(s.contains("1 of 3 rows shown"));
    }

    #[test]
    fn column_width_caps_with_ellipsis() {
        let mut t = Table::new(&["name"]);
        t.row(&["AVeryLongObjectNameThatWouldBlowTheColumn"]);
        let s = t.render_window(0, 10, 10);
        assert!(s.contains('…'));
        assert!(!s.contains("BlowTheColumn"));
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["x"]);
        let s = t.render();
        assert!(s.lines().count() == 3);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn offset_past_end_is_empty_window() {
        let t = sample();
        let s = t.render_window(10, 5, 40);
        assert_eq!(s.lines().count(), 2, "header + rule only");
    }
}

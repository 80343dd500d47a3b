//! One report per `paper` experiment, rendered one way.
//!
//! An experiment returns a [`Report`]: its name (the file stem under
//! `bench_results/` and the command that regenerates it), a title, the
//! parameters it ran at and its parts: headings, fixed-width
//! [`Table`]s and notes. [`Report::publish`] is the one renderer: it
//! prints the report, writes `bench_results/<name>.txt` under a header
//! generated from those parameters, and pushes the same parts into the
//! armed `--json` sink, table rows as objects whose numeric cells are
//! JSON numbers. A header cannot disagree with its run.

use simt::Json;

use crate::metrics;

#[derive(Debug, Clone, PartialEq)]
pub enum Part {
    /// A `== heading ==` line after a blank line.
    Heading(String),
    Table(Table),
    /// Lines printed verbatim (a leading newline is a blank line).
    Note(String),
}

/// A `paper` experiment's result: what ran, at which parameters, and what
/// it found.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub name: &'static str,
    pub title: String,
    /// Input sizes it ran at.
    pub sizes: Vec<usize>,
    pub seeds: Vec<u64>,
    /// Names of the device profiles it ran on.
    pub profiles: Vec<&'static str>,
    /// How its blocks were scheduled, in words.
    pub schedule: &'static str,
    pub parts: Vec<Part>,
    /// Further files written next to the report: `(file name, body)`.
    pub files: Vec<(&'static str, String)>,
}

/// `n` as the reports print it: `2^k` for a power of two, else decimal.
pub fn size(n: usize) -> String {
    match n.is_power_of_two() {
        true => format!("2^{}", n.ilog2()),
        false => n.to_string(),
    }
}

/// A cell as JSON: empty is null, a number (with an optional `%`, `x` or
/// `-bit` unit) is a number, anything else stays a string.
fn cell_json(cell: &str) -> Json {
    let cell = cell.trim();
    let bare = ["%", "x", "-bit"].iter().find_map(|u| cell.strip_suffix(u));
    match bare.unwrap_or(cell).parse::<f64>() {
        _ if cell.is_empty() => Json::Null,
        Ok(v) if v.is_finite() => Json::Num(v),
        _ => Json::Str(cell.into()),
    }
}

fn arr<T>(items: impl IntoIterator<Item = T>, f: impl Fn(T) -> Json) -> Json {
    Json::Arr(items.into_iter().map(f).collect())
}

fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).to_vec())
}

impl Report {
    /// A report without parts on a run at `sizes` (listed ascending and
    /// once each) and `seeds` on the K40c under the parallel schedule;
    /// struct update syntax sets the other fields where they differ.
    pub fn new(
        name: &'static str,
        title: impl Into<String>,
        sizes: &[usize],
        seeds: &[u64],
    ) -> Self {
        let mut sizes = sizes.to_vec();
        sizes.sort_unstable();
        sizes.dedup();
        Report {
            name,
            title: title.into(),
            sizes,
            seeds: seeds.to_vec(),
            profiles: vec![simt::K40C.name],
            schedule: "parallel",
            parts: Vec::new(),
            files: Vec::new(),
        }
    }

    pub fn heading(&mut self, heading: impl Into<String>) {
        self.parts.push(Part::Heading(heading.into()));
    }

    pub fn table(&mut self, table: Table) {
        self.parts.push(Part::Table(table));
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.parts.push(Part::Note(text.into()));
    }

    /// The command that regenerates this report, run with `args`.
    fn command(&self, args: &str) -> String {
        format!("paper {} {args}", self.name).trim_end().into()
    }

    /// The text report: the title, a line of parameters and the command
    /// that regenerates it, then (after a blank line) the body.
    pub fn text(&self, args: &str) -> String {
        let mut params = vec![];
        let sizes: Vec<String> = self.sizes.iter().map(|&n| size(n)).collect();
        if !sizes.is_empty() {
            params.push(format!("n = {}", sizes.join(", ")));
        }
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        if !seeds.is_empty() {
            let label = if seeds.len() == 1 { "seed" } else { "seeds" };
            params.push(format!("{label} {}", seeds.join(", ")));
        }
        params.extend([
            self.profiles.join(", "),
            format!("{} schedule", self.schedule),
        ]);
        let (title, params, command) = (&self.title, params.join("; "), self.command(args));
        let mut out = format!("{title}\n{params}\nregenerate: {command}\n");
        if !matches!(self.parts.first(), Some(Part::Heading(_))) {
            out.push('\n');
        }
        for part in &self.parts {
            match part {
                Part::Heading(h) => out.push_str(&format!("\n== {h} ==\n")),
                Part::Table(t) => out.push_str(&t.render()),
                Part::Note(text) => out.push_str(&format!("{text}\n")),
            }
        }
        out
    }

    /// The report as one `--json` section: its parameters, then its parts
    /// (`{"heading"}`, `{"columns", "rows"}` with one object per row, or
    /// `{"notes"}` holding the non-blank lines).
    pub fn to_json(&self, args: &str) -> Json {
        let string = |s: &str| Json::Str(s.into());
        let row = |t: &Table, row: &Vec<String>| {
            let cells = t.header.iter().zip(row);
            Json::Obj(cells.map(|(h, c)| (h.clone(), cell_json(c))).collect())
        };
        let part = |part: &Part| match part {
            Part::Heading(h) => obj([("heading", string(h))]),
            Part::Table(t) => obj([
                ("columns", arr(&t.header, |h| string(h))),
                ("rows", arr(&t.rows, |r| row(t, r))),
            ]),
            Part::Note(text) => {
                let lines = text.lines().filter(|l| !l.is_empty());
                obj([("notes", arr(lines, string))])
            }
        };
        obj([
            ("title", string(&self.title)),
            ("command", string(&self.command(args))),
            ("n", arr(&self.sizes, |&n| Json::int(n as u64))),
            ("seeds", arr(&self.seeds, |&s| Json::int(s))),
            ("profiles", arr(&self.profiles, |p| string(p))),
            ("schedule", string(self.schedule)),
            ("sections", arr(&self.parts, part)),
        ])
    }

    /// Print the report, write `bench_results/<name>.txt` and its further
    /// files, and push the report into the armed `--json` sink. `args` are
    /// the options it ran with. A file that cannot be written is an error
    /// naming its path.
    pub fn publish(&self, args: &str) -> Result<(), String> {
        let text = self.text(args);
        println!("{text}");
        metrics::sink_push(self.name, self.to_json(args));
        let report = (format!("{}.txt", self.name), &text);
        let files = self.files.iter().map(|(f, body)| (f.to_string(), body));
        for (file, body) in std::iter::once(report).chain(files) {
            let path = format!("bench_results/{file}");
            write_file(&path, body).map_err(|e| format!("paper {}: {e}", self.name))?;
            println!("[saved {path}]\n");
        }
        Ok(())
    }
}

/// Simple fixed-width table printer.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Write `body` to `path`, creating its directory; the error names the
/// file.
pub fn write_file(path: &str, body: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    p.parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(p, body))
        .map_err(|e| format!("could not write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("333"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn cells_become_numbers_nulls_or_strings() {
        assert_eq!(cell_json("  42"), Json::Num(42.0));
        assert_eq!(cell_json("-87.4%"), Json::Num(-87.4));
        assert_eq!(cell_json("6.65x"), Json::Num(6.65));
        assert_eq!(cell_json("16-bit"), Json::Num(16.0));
        assert_eq!(cell_json(""), Json::Null);
        assert_eq!(cell_json("2^16"), Json::Str("2^16".into()));
        assert_eq!(cell_json("1.83x slower"), Json::Str("1.83x slower".into()));
        assert_eq!(cell_json("NaN"), Json::Str("NaN".into()));
    }

    #[test]
    fn the_header_names_the_parameters_and_the_command() {
        let mut r = Report::new("demo", "Demo: a title", &[1 << 12, 1000, 1 << 12], &[7]);
        let mut t = Table::new(&["m", "ms"]);
        t.row(vec!["2".into(), "0.04".into()]);
        r.table(t);
        r.note("\nlast line");
        assert_eq!(
            r.text("--n 12"),
            "Demo: a title\nn = 1000, 2^12; seed 7; Tesla K40c (Kepler); parallel schedule\n\
             regenerate: paper demo --n 12\n\nm    ms\n-------\n2  0.04\n\nlast line\n"
        );
        let json = Json::parse(&r.to_json("--n 12").pretty()).unwrap();
        let sizes = Json::Arr(vec![Json::int(1000), Json::int(4096)]);
        assert_eq!(json.get("n"), Some(&sizes));
        let sections = json.get("sections").and_then(Json::as_arr).unwrap();
        let row = &sections[0].get("rows").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(row.get("ms"), Some(&Json::Num(0.04)));
        let notes = Json::Arr(vec![Json::Str("last line".into())]);
        assert_eq!(sections[1].get("notes"), Some(&notes));
        // A body that opens with a heading brings its own blank line.
        let mut r = Report::new("demo", "Demo", &[], &[]);
        r.heading("key-only");
        assert!(r.text("").ends_with("paper demo\n\n== key-only ==\n"));
    }
}

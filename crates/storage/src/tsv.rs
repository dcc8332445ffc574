//! Plain tab-separated persistence for instances.
//!
//! The generators in `datagen` can dump their output so experiments are
//! inspectable, and tests can load small fixtures. The format is one file
//! section per relation:
//!
//! ```text
//! # relation Grant
//! 1\tNSF
//! 2\tERC
//! ```

use crate::error::StorageError;
use crate::instance::Instance;
use crate::schema::AttrType;
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt::Write as _;

/// Serialize all relations of `db` into one TSV document.
pub fn to_tsv(db: &Instance) -> String {
    let mut out = String::new();
    for (rid, rs) in db.schema().iter() {
        writeln!(out, "# relation {}", rs.name).unwrap();
        for (_, t) in db.relation(rid).iter_live() {
            let line: Vec<String> = t.values().iter().map(ToString::to_string).collect();
            writeln!(out, "{}", line.join("\t")).unwrap();
        }
    }
    out
}

/// Like [`to_tsv`] with *typed* headers carrying the full schema, e.g.
/// `# relation Person(id: int, name: str)` — the self-describing format
/// that [`load_document`] reads back without a pre-built schema.
pub fn to_tsv_typed(db: &Instance) -> String {
    let mut out = String::new();
    for (rid, rs) in db.schema().iter() {
        let cols: Vec<String> = rs
            .attrs
            .iter()
            .map(|a| format!("{}: {}", a.name, a.ty.name()))
            .collect();
        writeln!(out, "# relation {}({})", rs.name, cols.join(", ")).unwrap();
        for (_, t) in db.relation(rid).iter_live() {
            let line: Vec<String> = t.values().iter().map(ToString::to_string).collect();
            writeln!(out, "{}", line.join("\t")).unwrap();
        }
    }
    out
}

/// Parse a typed relation header `Name(col: type, …)` into schema parts.
fn parse_typed_header(
    rest: &str,
    lineno: usize,
) -> Result<(String, Vec<(String, AttrType)>), StorageError> {
    let rest = rest.trim();
    let open = rest.find('(').ok_or_else(|| {
        StorageError::Parse(format!(
            "line {lineno}: typed header needs `(col: type, …)`"
        ))
    })?;
    if !rest.ends_with(')') {
        return Err(StorageError::Parse(format!(
            "line {lineno}: typed header must end with `)`"
        )));
    }
    let name = rest[..open].trim();
    if name.is_empty() {
        return Err(StorageError::Parse(format!(
            "line {lineno}: empty relation name"
        )));
    }
    let inner = &rest[open + 1..rest.len() - 1];
    let mut cols = Vec::new();
    for part in inner.split(',') {
        let (col, ty) = part.split_once(':').ok_or_else(|| {
            StorageError::Parse(format!(
                "line {lineno}: column needs `name: type`, got `{part}`"
            ))
        })?;
        let ty = match ty.trim() {
            "int" | "Int" | "INT" => AttrType::Int,
            "str" | "Str" | "STR" | "string" | "text" => AttrType::Str,
            other => {
                return Err(StorageError::Parse(format!(
                    "line {lineno}: unknown type `{other}` (use `int` or `str`)"
                )))
            }
        };
        cols.push((col.trim().to_owned(), ty));
    }
    if cols.is_empty() {
        return Err(StorageError::Parse(format!(
            "line {lineno}: relation `{name}` needs at least one column"
        )));
    }
    Ok((name.to_owned(), cols))
}

/// Load a self-describing document produced by [`to_tsv_typed`] (or written
/// by hand): typed headers declare the schema, data lines fill it. Returns
/// the complete instance.
pub fn load_document(text: &str) -> Result<Instance, StorageError> {
    use crate::schema::{RelationSchema, Schema};
    // A leading UTF-8 byte-order mark is an encoding marker, not text.
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    // Pass 1: collect the schema from typed headers.
    let mut schema = Schema::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end_matches('\r');
        if let Some(rest) = line.strip_prefix("# relation ") {
            let (name, cols) = parse_typed_header(rest, lineno + 1)?;
            let refs: Vec<(&str, AttrType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            schema.add_relation(RelationSchema::new(&name, &refs))?;
        }
    }
    if schema.is_empty() {
        return Err(StorageError::Parse(
            "document declares no relations (expected `# relation Name(col: type, …)`)".into(),
        ));
    }
    // Pass 2: reuse the untyped loader, stripping the type annotations.
    let mut db = Instance::new(schema);
    let stripped: String = text
        .lines()
        .map(|line| {
            if let Some(rest) = line.strip_prefix("# relation ") {
                let name = rest.split('(').next().unwrap_or(rest).trim();
                format!("# relation {name}\n")
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    from_tsv(&mut db, &stripped)?;
    Ok(db)
}

/// Load a TSV document (produced by [`to_tsv`]) into an instance with the
/// given schema. Values are parsed according to the declared attribute types.
pub fn from_tsv(db: &mut Instance, text: &str) -> Result<usize, StorageError> {
    let mut current = None;
    let mut inserted = 0;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# relation ") {
            current = Some(db.schema().require(rest.trim())?);
            continue;
        }
        let rel = current.ok_or_else(|| {
            StorageError::Parse(format!(
                "line {}: data before any relation header",
                lineno + 1
            ))
        })?;
        let rs = db.schema().rel(rel).clone();
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != rs.arity() {
            return Err(StorageError::ArityMismatch {
                relation: rs.name.clone(),
                expected: rs.arity(),
                got: fields.len(),
                line: Some(lineno + 1),
            });
        }
        let mut values = Vec::with_capacity(fields.len());
        for (attr, field) in rs.attrs.iter().zip(&fields) {
            let v = match attr.ty {
                AttrType::Int => Value::Int(field.parse::<i64>().map_err(|e| {
                    StorageError::Parse(format!(
                        "line {}: bad int `{}` for {}.{}: {}",
                        lineno + 1,
                        field,
                        rs.name,
                        attr.name,
                        e
                    ))
                })?),
                AttrType::Str => Value::str(field),
            };
            values.push(v);
        }
        db.insert(rel, Tuple::new(values))?;
        inserted += 1;
    }
    Ok(inserted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.relation("Grant", &[("gid", AttrType::Int), ("name", AttrType::Str)]);
        s.relation(
            "AuthGrant",
            &[("aid", AttrType::Int), ("gid", AttrType::Int)],
        );
        s
    }

    #[test]
    fn round_trip() {
        let mut db = Instance::new(schema());
        db.insert_values("Grant", [Value::Int(1), Value::str("NSF")])
            .unwrap();
        db.insert_values("AuthGrant", [Value::Int(2), Value::Int(1)])
            .unwrap();
        let text = to_tsv(&db);
        let mut db2 = Instance::new(schema());
        let n = from_tsv(&mut db2, &text).unwrap();
        assert_eq!(n, 2);
        assert_eq!(to_tsv(&db2), text);
    }

    #[test]
    fn data_before_header_is_an_error() {
        let mut db = Instance::new(schema());
        let err = from_tsv(&mut db, "1\tNSF\n").unwrap_err();
        assert!(matches!(err, StorageError::Parse(_)));
    }

    #[test]
    fn bad_int_is_an_error() {
        let mut db = Instance::new(schema());
        let err = from_tsv(&mut db, "# relation Grant\nxx\tNSF\n").unwrap_err();
        assert!(matches!(err, StorageError::Parse(_)));
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let mut db = Instance::new(schema());
        let err = from_tsv(&mut db, "# relation Grant\n1\n").unwrap_err();
        assert!(matches!(
            err,
            StorageError::ArityMismatch { line: Some(2), .. }
        ));
        assert!(err.to_string().starts_with("line 2:"), "{err}");
    }

    #[test]
    fn typed_document_round_trip() {
        let mut db = Instance::new(schema());
        db.insert_values("Grant", [Value::Int(1), Value::str("NSF")])
            .unwrap();
        db.insert_values("AuthGrant", [Value::Int(2), Value::Int(1)])
            .unwrap();
        let text = to_tsv_typed(&db);
        assert!(text.contains("# relation Grant(gid: int, name: string)"));
        let loaded = load_document(&text).unwrap();
        assert_eq!(loaded.total_rows(), 2);
        assert_eq!(to_tsv_typed(&loaded), text);
        // The rebuilt schema matches attribute-for-attribute.
        for (rid, rs) in db.schema().iter() {
            let lrs = loaded
                .schema()
                .rel(loaded.schema().rel_id(&rs.name).unwrap());
            assert_eq!(lrs.attrs.len(), rs.attrs.len());
            let _ = rid;
        }
    }

    #[test]
    fn load_document_rejects_bad_headers() {
        assert!(
            load_document("# relation Grant\n1\tNSF\n").is_err(),
            "untyped header"
        );
        assert!(
            load_document("# relation Grant(gid int)\n").is_err(),
            "missing colon"
        );
        assert!(
            load_document("# relation Grant(gid: float)\n").is_err(),
            "unknown type"
        );
        assert!(
            load_document("# relation (gid: int)\n").is_err(),
            "empty name"
        );
        assert!(load_document("# relation Grant()\n").is_err(), "no columns");
        assert!(load_document("").is_err(), "empty document");
        assert!(
            load_document("# relation G(gid: int)\n# relation G(gid: int)\n").is_err(),
            "duplicate relation"
        );
    }

    #[test]
    fn load_document_handcrafted() {
        let doc = "# relation Edge(src: int, dst: int)\n1\t2\n2\t3\n";
        let db = load_document(doc).unwrap();
        assert_eq!(db.total_rows(), 2);
        let rel = db.schema().rel_id("Edge").unwrap();
        assert_eq!(db.rows(rel), 2);
    }
}

//! Output checks. Each compares a serialized result with answers the
//! generator derived from the XDM tree, so a wrong engine result can
//! never agree with itself. A failed check counts as a failed
//! operation in the run's `error_rate`.

use std::collections::{BTreeMap, BTreeSet};

use crate::gen::Inputs;

/// The bodies of every `<tag ...>...</tag>` row of `body`, with the
/// start tag's attribute text.
fn rows<'a>(body: &'a str, tag: &str) -> Result<Vec<(&'a str, &'a str)>, String> {
    let open = format!("<{tag}");
    let close = format!("</{tag}>");
    let mut out = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let Some(after) = rest.strip_prefix(open.as_str()) else {
            return Err(format!("expected <{tag}> at {:?}", snippet(rest)));
        };
        let gt = after.find('>').ok_or("unterminated start tag")?;
        let end = after.find(close.as_str()).ok_or("missing close tag")?;
        if end < gt {
            return Err("malformed row".to_string());
        }
        out.push((&after[..gt], &after[gt + 1..end]));
        rest = &after[end + close.len()..];
    }
    Ok(out)
}

fn snippet(s: &str) -> &str {
    &s[..s.char_indices().nth(40).map_or(s.len(), |(i, _)| i)]
}

/// A `Qgb` row `<k1>v1</k1><k2>v2</k2>N` as its key texts and count.
fn qgb_row(inner: &str) -> Result<(Vec<String>, u64), String> {
    let mut keys = Vec::new();
    let mut rest = inner;
    while let Some(after) = rest.strip_prefix('<') {
        let gt = after.find('>').ok_or("unterminated key tag")?;
        let name = &after[..gt];
        let close = format!("</{name}>");
        let end = after.find(close.as_str()).ok_or("unterminated key")?;
        keys.push(after[gt + 1..end].to_string());
        rest = &after[end + close.len()..];
    }
    let count = rest
        .trim()
        .parse()
        .map_err(|_| format!("bad group count {:?}", snippet(rest)))?;
    Ok((keys, count))
}

/// Row text with tags and whitespace removed, sorted: the form in
/// which `Q` and `Qgb` results must agree.
fn normalized(body: &str) -> Result<Vec<String>, String> {
    let mut out: Vec<String> = rows(body, "r")?
        .into_iter()
        .map(|(_, inner)| {
            let mut text = String::new();
            let mut in_tag = false;
            for c in inner.chars() {
                match c {
                    '<' => in_tag = true,
                    '>' => in_tag = false,
                    c if !in_tag && !c.is_whitespace() => text.push(c),
                    _ => {}
                }
            }
            text
        })
        .collect();
    out.sort();
    Ok(out)
}

/// Check one `Qgb` result of experiment `exp`: exactly the generator's
/// groups and counts, `EXPERIMENTS[exp].groups` of them, summing to the
/// lineitem count.
pub fn check_qgb(inputs: &Inputs, exp: usize, body: &str) -> Result<(), String> {
    let expected = &inputs.groups[exp];
    let mut got: BTreeMap<Vec<String>, u64> = BTreeMap::new();
    for (_, inner) in rows(body, "r")? {
        let (keys, n) = qgb_row(inner)?;
        if got.insert(keys.clone(), n).is_some() {
            return Err(format!("group {keys:?} emitted twice"));
        }
    }
    let want = xqa_bench::EXPERIMENTS[exp].groups;
    if got.len() != want {
        return Err(format!("{} groups, expected {want}", got.len()));
    }
    let total: u64 = got.values().sum();
    if total != inputs.lineitems as u64 {
        return Err(format!(
            "group counts sum to {total}, expected {}",
            inputs.lineitems
        ));
    }
    if &got != expected {
        return Err("group keys or counts differ from the generated data".to_string());
    }
    Ok(())
}

/// Check one `Q` result against the `Qgb` result of the same
/// experiment and against the generator's groups, after normalization.
pub fn check_q(inputs: &Inputs, exp: usize, body: &str, qgb_body: &str) -> Result<(), String> {
    let got = normalized(body)?;
    if got != normalized(qgb_body)? {
        return Err("Q rows differ from Qgb rows".to_string());
    }
    let mut want: Vec<String> = inputs.groups[exp]
        .iter()
        .map(|(keys, n)| {
            let mut s: String = keys.concat().split_whitespace().collect();
            s.push_str(&n.to_string());
            s
        })
        .collect();
    want.sort();
    if got != want {
        return Err("Q rows differ from the generated data".to_string());
    }
    Ok(())
}

/// Check one ingest-scan query result by query name.
pub fn check_scan(inputs: &Inputs, query: &str, body: &str) -> Result<(), String> {
    let oracle = &inputs.scan;
    match query {
        "group_partkey" => {
            let mut got: BTreeMap<String, u64> = BTreeMap::new();
            for (_, inner) in rows(body, "g")? {
                let (k, n) = inner.split_once(':').ok_or("group row without ':'")?;
                let n = n.parse().map_err(|_| format!("bad count in {inner:?}"))?;
                if got.insert(k.to_string(), n).is_some() {
                    return Err(format!("partkey {k} emitted twice"));
                }
            }
            if got != oracle.partkey_counts {
                return Err(format!(
                    "{} partkey groups differ from the {} generated",
                    got.len(),
                    oracle.partkey_counts.len()
                ));
            }
        }
        "filter_scan" => {
            let got: Vec<&str> = rows(body, "r")?.into_iter().map(|(_, v)| v).collect();
            if got != oracle.filter_partkeys {
                return Err(format!(
                    "{} filtered rows, expected {} in document order",
                    got.len(),
                    oracle.filter_partkeys.len()
                ));
            }
        }
        "topk_price" => {
            let got = rows(body, "top")?;
            if got.len() != 10.min(oracle.top.len()) {
                return Err(format!("{} top rows, expected 10", got.len()));
            }
            let allowed: BTreeSet<(&str, &str)> = oracle
                .top
                .iter()
                .map(|(p, k)| (p.as_str(), k.as_str()))
                .collect();
            for (i, (attrs, partkey)) in got.iter().enumerate() {
                let rank = attr(attrs, "rank").ok_or("row without rank")?;
                let price = attr(attrs, "price").ok_or("row without price")?;
                if rank != (i + 1).to_string() {
                    return Err(format!("row {i} has rank {rank}"));
                }
                if price != oracle.top[i].0 || !allowed.contains(&(price, *partkey)) {
                    return Err(format!("rank {rank}: price {price} partkey {partkey}"));
                }
            }
        }
        "count" => {
            if body != inputs.lineitems.to_string() {
                return Err(format!("count {body}, expected {}", inputs.lineitems));
            }
        }
        other => return Err(format!("no oracle for query {other}")),
    }
    Ok(())
}

fn attr<'a>(attrs: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("{name}=\"");
    let start = attrs.find(key.as_str())? + key.len();
    let len = attrs[start..].find('"')?;
    Some(&attrs[start..start + len])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_group_rows() {
        let (keys, n) = qgb_row("<a>NONE</a><b>0.01</b>12").unwrap();
        assert_eq!(keys, ["NONE", "0.01"]);
        assert_eq!(n, 12);
        assert_eq!(
            normalized("<r>COLLECT COD 3</r><r><a>NONE</a>2</r>").unwrap(),
            ["COLLECTCOD3", "NONE2"]
        );
        assert!(rows("<r>1</r>junk", "r").is_err());
    }
}

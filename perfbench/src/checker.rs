//! Definitional reverse-skyline checker, written from the paper's
//! definition and nothing else: `Y` prunes `X` (w.r.t. query `Q`) iff for
//! every attribute `i`, `d_i(Y_i, X_i) ≤ d_i(Q_i, X_i)`, strictly for at
//! least one `i`; `X ∈ RS(Q)` iff no other row prunes it. It reads only the
//! rows and `DissimTable::d` — no engine, layout, kernel or oracle code of
//! the program — so an engine bug cannot also hide in the reference.

use rsky_core::dissim::DissimTable;

/// Rows as one flat slice, each row `[id, v_0, …, v_{m-1}]` (the layout of
/// `RowBuf::as_flat`).
pub struct Rows<'a> {
    /// Attributes per row.
    pub m: usize,
    /// The flat row data.
    pub flat: &'a [u32],
}

impl Rows<'_> {
    fn len(&self) -> usize {
        self.flat.len() / (self.m + 1)
    }

    fn row(&self, k: usize) -> &[u32] {
        let w = self.m + 1;
        &self.flat[k * w..(k + 1) * w]
    }
}

/// `RS(Q)` over `rows`, ids ascending. Positions, not ids, tell a row from
/// itself, so exact duplicates (distinct ids, equal values) prune each
/// other unless they tie the query on every attribute.
///
/// Only the search for a pruner is organised for speed; every verdict is
/// the predicate above. A pruner `Y` of `X` must hold, on each attribute
/// `i`, a value `v` with `d_i(v, X_i) ≤ d_i(Q_i, X_i)`. Those values depend
/// on `X_i` alone, so they are listed once per attribute value, and only
/// the rows holding one of them on `X`'s most selective attribute (found
/// through a value → rows index) are tested.
pub fn reverse_skyline(dt: &DissimTable, rows: &Rows<'_>, q: &[u32]) -> Vec<u32> {
    let m = rows.m;
    let n = rows.len();
    let card: Vec<usize> = (0..m)
        .map(|i| {
            (0..n)
                .map(|k| rows.row(k)[1 + i])
                .chain([q[i]])
                .max()
                .unwrap_or(0) as usize
                + 1
        })
        .collect();
    // index[i][v]: positions of the rows whose attribute i holds v.
    let mut index: Vec<Vec<Vec<usize>>> = card.iter().map(|&c| vec![Vec::new(); c]).collect();
    for k in 0..n {
        for (i, &v) in rows.row(k)[1..].iter().enumerate() {
            index[i][v as usize].push(k);
        }
    }
    // dq[i][c] = d_i(Q_i, c); admissible[i][c]: the values v with
    // d_i(v, c) ≤ d_i(Q_i, c); reach[i][c]: rows holding one of them.
    let dq: Vec<Vec<f64>> = (0..m)
        .map(|i| (0..card[i] as u32).map(|c| dt.d(i, q[i], c)).collect())
        .collect();
    let admissible: Vec<Vec<Vec<u32>>> = (0..m)
        .map(|i| {
            (0..card[i] as u32)
                .map(|c| {
                    (0..card[i] as u32)
                        .filter(|&v| dt.d(i, v, c) <= dq[i][c as usize])
                        .collect()
                })
                .collect()
        })
        .collect();
    let reach: Vec<Vec<usize>> = admissible
        .iter()
        .zip(&index)
        .map(|(adm, idx)| {
            adm.iter()
                .map(|vs| vs.iter().map(|&v| idx[v as usize].len()).sum())
                .collect()
        })
        .collect();

    let mut dqx = vec![0.0f64; m];
    let mut out = Vec::new();
    // Pruners cluster: the row that pruned the previous object is tried
    // first.
    let mut last: Option<usize> = None;
    for a in 0..n {
        let x = &rows.row(a)[1..];
        for i in 0..m {
            dqx[i] = dq[i][x[i] as usize];
        }
        let prunes = |b: usize| b != a && prunes(dt, &rows.row(b)[1..], x, &dqx);
        if last.is_some_and(prunes) {
            continue;
        }
        let i = (0..m)
            .min_by_key(|&i| reach[i][x[i] as usize])
            .expect("at least one attribute");
        let found = admissible[i][x[i] as usize]
            .iter()
            .flat_map(|&v| index[i][v as usize].iter().copied())
            .find(|&b| prunes(b));
        match found {
            Some(b) => last = Some(b),
            None => out.push(rows.row(a)[0]),
        }
    }
    out.sort_unstable();
    out
}

fn prunes(dt: &DissimTable, y: &[u32], x: &[u32], dq: &[f64]) -> bool {
    let mut strict = false;
    for (i, &dqx) in dq.iter().enumerate() {
        let dyx = dt.d(i, y[i], x[i]);
        if dyx > dqx {
            return false;
        }
        strict |= dyx < dqx;
    }
    strict
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsky_core::record::RowBuf;

    #[test]
    fn paper_running_example_is_o3_o6() {
        let (ds, q) = rsky_data::paper_example();
        let rows = Rows {
            m: 3,
            flat: ds.rows.as_flat(),
        };
        assert_eq!(reverse_skyline(&ds.dissim, &rows, &q.values), vec![3, 6]);
    }

    #[test]
    fn exact_duplicates_prune_each_other_unless_they_tie_the_query() {
        let (ds, _) = rsky_data::paper_example();
        let mut dup = RowBuf::new(3);
        dup.push(10, &[0, 1, 2]);
        dup.push(11, &[0, 1, 2]);
        let rows = Rows {
            m: 3,
            flat: dup.as_flat(),
        };
        assert!(reverse_skyline(&ds.dissim, &rows, &[1, 0, 0]).is_empty());
        assert_eq!(reverse_skyline(&ds.dissim, &rows, &[0, 1, 2]), vec![10, 11]);
    }
}

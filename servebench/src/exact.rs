//! The recall reference: an exact top-k scan over the benchmark's own copy
//! of the vectors. It shares no code with `sem-serve`: normalisation, dot
//! products and the (score desc, id asc) order are all computed here.

/// Normalised vectors by global id (`None` for ids never acknowledged).
#[derive(Default)]
pub struct Exact {
    vectors: Vec<Option<Vec<f32>>>,
}

fn unit(v: &[f32]) -> Vec<f32> {
    let norm = v.iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>().sqrt();
    if norm > 0.0 {
        v.iter().map(|&x| (f64::from(x) / norm) as f32).collect()
    } else {
        v.to_vec()
    }
}

impl Exact {
    /// A reference over `vectors`, ids `0..vectors.len()`.
    pub fn new(vectors: &[Vec<f32>]) -> Self {
        Exact { vectors: vectors.iter().map(|v| Some(unit(v))).collect() }
    }

    /// Adds the vector acknowledged as `id`.
    pub fn insert(&mut self, id: usize, vector: &[f32]) {
        if self.vectors.len() <= id {
            self.vectors.resize(id + 1, None);
        }
        self.vectors[id] = Some(unit(vector));
    }

    /// Ids of the exact top-`k` for `query`, by cosine desc then id asc.
    pub fn top_k(&self, query: &[f32], k: usize) -> Vec<usize> {
        let q = unit(query);
        let mut scored: Vec<(f64, usize)> = self
            .vectors
            .iter()
            .enumerate()
            .filter_map(|(id, v)| {
                let v = v.as_ref()?;
                Some((q.iter().zip(v).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum(), id))
            })
            .collect();
        let k = k.min(scored.len());
        if k == 0 {
            return Vec::new();
        }
        let order = |a: &(f64, usize), b: &(f64, usize)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
        scored.select_nth_unstable_by(k - 1, order);
        scored.truncate(k);
        scored.sort_by(order);
        scored.into_iter().map(|(_, id)| id).collect()
    }
}

/// Share of `exact` ids that `served` also returned.
pub fn recall(served: &[usize], exact: &[usize]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    exact.iter().filter(|id| served.contains(id)).count() as f64 / exact.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_orders_by_cosine_then_id() {
        let mut exact = Exact::new(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![2.0, 0.0]]);
        exact.insert(5, &[1.0, 1.0]);
        assert_eq!(exact.top_k(&[1.0, 0.1], 3), vec![0, 2, 5]);
        assert_eq!(exact.top_k(&[0.0, 3.0], 10), vec![1, 5, 0, 2]);
        assert_eq!(recall(&[0, 2, 7], &[0, 2, 5]), 2.0 / 3.0);
    }
}

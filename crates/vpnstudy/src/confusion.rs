//! Confusion matrices among continents and countries (Appendix A,
//! Figs. 22–23).
//!
//! "Uncertain prediction regions include more than one country, or even
//! more than one continent. Since a prediction region is always
//! contiguous, we expect uncertainty among groups of neighboring
//! countries, but which groups?" The matrices count, for every prediction
//! region, each pair of countries (continents) it covers; the diagonal
//! counts regions covering the country (continent) at all.

use crate::audit::StudyResults;
use worldmap::{Continent, WorldAtlas};

/// An N×N co-occurrence matrix with labelled axes.
#[derive(Debug, Clone)]
pub struct ConfusionMatrix {
    /// Axis labels.
    pub labels: Vec<String>,
    /// Row-major counts: `counts[i * n + j]` = number of prediction
    /// regions covering both label `i` and label `j`.
    pub counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.labels.len()
    }

    /// Count accessor.
    pub fn at(&self, i: usize, j: usize) -> u64 {
        self.counts[i * self.n() + j]
    }

    /// The matrix restricted to rows/columns with a nonzero diagonal
    /// (labels that appear in at least one region), preserving order.
    pub fn trimmed(&self) -> ConfusionMatrix {
        let n = self.n();
        let keep: Vec<usize> = (0..n).filter(|&i| self.at(i, i) > 0).collect();
        let labels = keep.iter().map(|&i| self.labels[i].clone()).collect();
        let mut counts = Vec::with_capacity(keep.len() * keep.len());
        for &i in &keep {
            for &j in &keep {
                counts.push(self.at(i, j));
            }
        }
        ConfusionMatrix { labels, counts }
    }
}

/// Continent confusion matrix (Fig. 22): 8×8 in [`Continent::ALL`] order.
pub fn continent_confusion(atlas: &WorldAtlas, results: &StudyResults) -> ConfusionMatrix {
    let labels: Vec<String> = Continent::ALL
        .iter()
        .map(|c| c.name().to_string())
        .collect();
    let mut counts = vec![0u64; 64];
    for r in &results.records {
        let mut continents: Vec<usize> = r
            .verdict
            .touched
            .iter()
            .map(|&(c, _)| atlas.country(c).continent().index())
            .collect();
        continents.sort_unstable();
        continents.dedup();
        for &i in &continents {
            for &j in &continents {
                counts[i * 8 + j] += 1;
            }
        }
    }
    ConfusionMatrix { labels, counts }
}

/// Country confusion matrix (Fig. 23): all atlas countries, in the
/// paper-like order (continent blocks).
pub fn country_confusion(atlas: &WorldAtlas, results: &StudyResults) -> ConfusionMatrix {
    // Order countries by continent block then name, like Fig. 23.
    let mut order: Vec<usize> = (0..atlas.num_countries()).collect();
    order.sort_by_key(|&c| {
        (
            atlas.country(c).continent().index(),
            atlas.country(c).name(),
        )
    });
    let pos_of: Vec<usize> = {
        let mut v = vec![0usize; atlas.num_countries()];
        for (pos, &c) in order.iter().enumerate() {
            v[c] = pos;
        }
        v
    };
    let n = order.len();
    let labels: Vec<String> = order
        .iter()
        .map(|&c| atlas.country(c).name().to_string())
        .collect();
    let mut counts = vec![0u64; n * n];
    for r in &results.records {
        let touched: Vec<usize> = r.verdict.touched.iter().map(|&(c, _)| pos_of[c]).collect();
        for &i in &touched {
            for &j in &touched {
                counts[i * n + j] += 1;
            }
        }
    }
    ConfusionMatrix { labels, counts }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_matrix() -> ConfusionMatrix {
        ConfusionMatrix {
            labels: vec!["a".into(), "b".into(), "c".into()],
            counts: vec![
                2, 1, 0, //
                1, 3, 0, //
                0, 0, 0,
            ],
        }
    }

    #[test]
    fn accessors() {
        let m = tiny_matrix();
        assert_eq!(m.n(), 3);
        assert_eq!(m.at(0, 1), 1);
        assert_eq!(m.at(1, 1), 3);
    }

    #[test]
    fn trim_drops_empty_axes() {
        let m = tiny_matrix().trimmed();
        assert_eq!(m.labels, vec!["a", "b"]);
        assert_eq!(m.counts, vec![2, 1, 1, 3]);
    }

    // Study-level behaviour of the matrices is covered by the
    // integration tests (tests/study_pipeline.rs), which build a full
    // small study once and check symmetry and diagonal dominance there.
}

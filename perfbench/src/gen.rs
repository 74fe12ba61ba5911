//! Seeded input generation: the request mixes and the author's edit
//! script. Everything here is a pure function of the seed, and all of it
//! runs before any timed phase starts.

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that the mixes
    /// of one run do not share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Zipf(`s`) over `n` items: rank `k` (1-based) has weight `k^-s`, and a
/// seeded permutation decides which item holds which rank.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    item_of_rank: Vec<u32>,
}

impl Zipf {
    /// The distribution over `n` items with exponent `s`.
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += (k as f64).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut item_of_rank: Vec<u32> = (0..n as u32).collect();
        let mut rng = Rng::new(seed, 1);
        for i in (1..n).rev() {
            item_of_rank.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, item_of_rank }
    }

    /// Draws one item.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.item_of_rank[rank]
    }
}

/// One read in a pre-generated mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOp {
    /// Index into the run's sorted path list.
    pub path: u32,
    /// HEAD instead of GET.
    pub head: bool,
    /// Back-button replay of an earlier `(path, generation)` instead of a
    /// fresh read (`path` is then unused).
    pub replay: bool,
}

/// `count` reads: zipf(1.1) paths over `paths` items, 1 in 8 a HEAD, and
/// (when `replays`) half of them back-button replays.
pub fn read_mix(seed: u64, stream: u64, paths: usize, count: usize, replays: bool) -> Vec<ReadOp> {
    let zipf = Zipf::new(paths, 1.1, seed);
    let mut rng = Rng::new(seed, stream);
    (0..count)
        .map(|_| {
            let replay = replays && rng.chance(0.5);
            ReadOp {
                path: zipf.sample(&mut rng),
                head: rng.below(8) == 0,
                replay,
            }
        })
        .collect()
}

/// One commit of the author's script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditKind {
    /// Retitle one painting: its data document gets `title`.
    Data {
        /// Data-document path, e.g. `painting-17.xml`.
        path: String,
        /// The new title, unique across the script.
        title: String,
    },
    /// Append a revision comment to `museum.css`.
    Css {
        /// The comment text, unique across the script.
        marker: String,
    },
    /// Swap `links.xml` to the Indexed Guided Tour (`true`) or back to the
    /// Index (`false`): the paper's requirement change.
    Spec {
        /// Whether the new linkbase is the Indexed Guided Tour.
        to_igt: bool,
    },
}

/// Every `SPEC_EVERY`th commit is the `links.xml` swap.
pub const SPEC_EVERY: usize = 10;
/// Share of the remaining commits that edit the stylesheet.
pub const CSS_SHARE: f64 = 0.1;

/// `commits` edits over the data documents in `paintings`: mostly
/// one-page painting retitles, some `museum.css` edits, and every
/// [`SPEC_EVERY`]th commit the linkbase swap (starting from the Index).
pub fn edit_script(seed: u64, paintings: &[String], commits: usize) -> Vec<EditKind> {
    let mut rng = Rng::new(seed, 7);
    let mut on_igt = false;
    (1..=commits)
        .map(|i| {
            if i % SPEC_EVERY == 0 {
                on_igt = !on_igt;
                EditKind::Spec { to_igt: on_igt }
            } else if rng.chance(CSS_SHARE) {
                EditKind::Css {
                    marker: format!("revision {i}"),
                }
            } else {
                let path = paintings[rng.below(paintings.len())].clone();
                let title = format!("{} rev {i}", path.trim_end_matches(".xml"));
                EditKind::Data { path, title }
            }
        })
        .collect()
}

/// Replaces the text of the first `<title>` element in `xml`.
pub fn retitle(xml: &str, title: &str) -> Option<String> {
    let open = xml.find("<title>")? + "<title>".len();
    let close = open + xml[open..].find("</title>")?;
    Some(format!("{}{}{}", &xml[..open], title, &xml[close..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_mix_repeats_for_a_seed() {
        let a = read_mix(42, 3, 1003, 5000, true);
        let b = read_mix(42, 3, 1003, 5000, true);
        assert_eq!(a, b);
        assert_ne!(a, read_mix(43, 3, 1003, 5000, true));
    }

    #[test]
    fn zipf_mix_has_the_planned_shape() {
        let mix = read_mix(7, 3, 1003, 40_000, true);
        let heads = mix.iter().filter(|op| op.head).count() as f64 / mix.len() as f64;
        let replays = mix.iter().filter(|op| op.replay).count() as f64 / mix.len() as f64;
        assert!((heads - 0.125).abs() < 0.01, "HEAD share {heads}");
        assert!((replays - 0.5).abs() < 0.01, "replay share {replays}");
        assert!(read_mix(7, 3, 1003, 1000, false)
            .iter()
            .all(|op| !op.replay));
        // Zipf(1.1): the most popular item takes a large share and far more
        // than the median item.
        let mut counts = vec![0usize; 1003];
        for op in &mix {
            counts[op.path as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        assert!(counts[0] > 40_000 / 10, "top item share {}", counts[0]);
        assert!(counts[0] > 50 * counts[501].max(1));
    }

    #[test]
    fn edit_script_repeats_for_a_seed() {
        let paintings: Vec<String> = (0..960).map(|i| format!("painting-{i}.xml")).collect();
        let a = edit_script(9, &paintings, 500);
        assert_eq!(a, edit_script(9, &paintings, 500));
        assert_ne!(a, edit_script(10, &paintings, 500));
        // Every tenth commit swaps the linkbase, alternating from Index.
        let swaps: Vec<bool> = a
            .iter()
            .filter_map(|e| match e {
                EditKind::Spec { to_igt } => Some(*to_igt),
                _ => None,
            })
            .collect();
        assert_eq!(swaps.len(), 50);
        assert!(swaps.iter().step_by(2).all(|&igt| igt));
        assert!(swaps.iter().skip(1).step_by(2).all(|&igt| !igt));
        assert!(matches!(a[9], EditKind::Spec { to_igt: true }));
        let css = a
            .iter()
            .filter(|e| matches!(e, EditKind::Css { .. }))
            .count();
        assert!((20..=70).contains(&css), "css edits {css}");
    }

    #[test]
    fn retitle_replaces_only_the_title() {
        let xml = "<painting id=\"p\"><title>Old</title><year>1900</year></painting>";
        assert_eq!(
            retitle(xml, "New").as_deref(),
            Some("<painting id=\"p\"><title>New</title><year>1900</year></painting>")
        );
        assert_eq!(retitle("<a/>", "x"), None);
    }
}

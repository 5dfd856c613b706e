//! MNA system assembly and a planned sparse LU solve.
//!
//! A Modified-Nodal-Analysis system over `n` unknowns: one row per
//! non-ground node (KCL) plus one row per voltage-source branch (the branch
//! current is an unknown, the branch row pins the node-voltage difference).
//! The ground node is eliminated at stamp time: it has no row or column, so
//! its entries are simply not stamped.
//!
//! Sense-amplifier testbenches are small (tens of unknowns) and almost
//! empty: the classic testbench stamps 71 of its 22 × 22 entries. The matrix
//! is stored dense, row-major, and solved by Gaussian elimination with
//! partial pivoting, which keeps the latch's near-singular high-gain
//! moments stable. Because a circuit stamps the same entries on every
//! Newton iteration, the solve is compiled once:
//!
//! - stamps address the matrix through slots, and making a slot records its
//!   entry in the *pattern*;
//! - the first solve runs the dense elimination and records its pivot
//!   rows;
//! - from the pattern and those pivots an [`LuPlan`] lists, per column, the
//!   rows that may win the pivot, the pivot row's entries right of the
//!   diagonal (its back-substitution columns too) and the rows to eliminate,
//!   fill included;
//! - later solves make the partial-pivot choice over the candidate rows
//!   only, update structural entries only, and move no rows: the plan names
//!   the storage row of each position instead.
//!
//! The planned solve returns the dense solve's bits, not an approximation
//! of them. A structural zero holds `+0.0`, which never wins the pivot
//! scan's strict `>`. Every update the plan skips subtracts a signed zero
//! (a finite factor times `+0.0`) from an entry that is never `−0.0` (sums
//! started from `+0.0` cannot reach it), which leaves the entry unchanged.
//! The plan checks the finiteness this relies on. When a column holds a
//! non-finite entry or its pivot differs from the plan, the rows are put in
//! the dense layout and elimination continues densely from that column,
//! where the matrix equals the dense one; the plan is then rebuilt from the
//! new pivots. A non-finite solution is recomputed by the dense
//! back-substitution.

/// Pivot magnitude below which the system counts as singular.
const PIVOT_FLOOR: f64 = 1e-300;

/// `A·x = b` system with MNA stamp helpers and a compiled solve.
///
/// The matrix is addressed through *slots*: [`MnaSystem::slot`] records an
/// entry in the pattern and returns its storage index, and the stamps add
/// to slots. A new slot after the plan was built discards the plan, so the
/// plan always covers every entry a stamp can touch.
#[derive(Debug, Clone)]
pub(crate) struct MnaSystem {
    n: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    /// Every entry of `a` a slot was made for (row-major).
    pattern: Vec<bool>,
    /// The compiled solve; it holds only while `planned` is set.
    plan: LuPlan,
    planned: bool,
}

impl MnaSystem {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            n,
            a: vec![0.0; n * n],
            b: vec![0.0; n],
            pattern: vec![false; n * n],
            plan: LuPlan {
                pivots: vec![0; n],
                ..LuPlan::default()
            },
            planned: false,
        }
    }

    /// Zeroes the system for re-assembly (same slots every Newton
    /// iteration, so the allocation and the plan are reused).
    pub(crate) fn clear(&mut self) {
        self.a.iter_mut().for_each(|x| *x = 0.0);
        self.b.iter_mut().for_each(|x| *x = 0.0);
    }

    /// The storage slot of entry (`row`, `col`), recorded in the pattern.
    pub(crate) fn slot(&mut self, row: usize, col: usize) -> usize {
        let i = row * self.n + col;
        if !self.pattern[i] {
            self.pattern[i] = true;
            self.planned = false;
        }
        i
    }

    /// The slots of a conductance stamp between unknowns `a` and `b`, in
    /// [`MnaSystem::stamp_conductance`]'s order: (a,a), (a,b), (b,b), (b,a).
    pub(crate) fn conductance_slots(&mut self, a: usize, b: usize) -> [usize; 4] {
        [
            self.slot(a, a),
            self.slot(a, b),
            self.slot(b, b),
            self.slot(b, a),
        ]
    }

    /// Adds `v` to the entry at `slot` — the general stamp nonlinear
    /// devices reduce to (a partial derivative ∂(current leaving a row)/∂v
    /// of a column).
    pub(crate) fn add(&mut self, slot: usize, v: f64) {
        self.a[slot] += v;
    }

    /// Stamps a conductance `g` (siemens) between two unknowns: the
    /// standard four-point pattern over [`MnaSystem::conductance_slots`].
    pub(crate) fn stamp_conductance(&mut self, [aa, ab, bb, ba]: [usize; 4], g: f64) {
        self.add(aa, g);
        self.add(ab, -g);
        self.add(bb, g);
        self.add(ba, -g);
    }

    /// Adds to the right-hand side of a row (KCL residual or branch
    /// equation residual).
    pub(crate) fn stamp_rhs(&mut self, row: usize, v: f64) {
        self.b[row] += v;
    }

    /// Solves the assembled system in place, writing the solution into `x`
    /// (length `n`). Returns `false` when the matrix is numerically
    /// singular (no usable pivot); `x` is then unspecified.
    #[must_use]
    pub(crate) fn solve_into(&mut self, x: &mut [f64]) -> bool {
        let n = self.n;
        debug_assert_eq!(x.len(), n);
        let from = if self.planned {
            match self.plan.eliminate(n, &mut self.a, &mut self.b) {
                Ok(()) => {
                    self.plan.back_substitute(n, &self.a, &self.b, x);
                    if !x.iter().all(|v| v.is_finite()) {
                        self.plan.restore_layout(n, &mut self.a, &mut self.b, n);
                        back_substitute_dense(n, &self.a, &self.b, x);
                    }
                    return true;
                }
                Err(Stop::Singular) => return false,
                Err(Stop::Diverged(col)) => {
                    self.plan.restore_layout(n, &mut self.a, &mut self.b, col);
                    col
                }
            }
        } else {
            0
        };
        // The matrix equals the dense elimination's state at column `from`:
        // finish densely, then plan from the pivots it chose.
        if !eliminate_dense(n, &mut self.a, &mut self.b, from, &mut self.plan.pivots) {
            self.planned = false;
            return false;
        }
        back_substitute_dense(n, &self.a, &self.b, x);
        self.plan.build(n, &self.pattern);
        self.planned = true;
        true
    }
}

/// Index lists, one per column, stored back to back.
#[derive(Debug, Clone, Default)]
struct Lists {
    start: Vec<usize>,
    items: Vec<usize>,
}

impl Lists {
    fn clear(&mut self) {
        self.start.clear();
        self.start.push(0);
        self.items.clear();
    }

    /// Ends the list being filled.
    fn close(&mut self) {
        self.start.push(self.items.len());
    }

    fn get(&self, k: usize) -> &[usize] {
        &self.items[self.start[k]..self.start[k + 1]]
    }
}

/// The dense elimination of one pivot sequence over one stamp pattern,
/// reduced to its structural entries. The planned solve never moves a row:
/// where the dense elimination swaps rows, the plan names the storage row
/// that holds each position instead. Rebuilding reuses every buffer.
#[derive(Debug, Clone, Default)]
struct LuPlan {
    /// The dense layout's position swapped into position `col` at
    /// elimination step `col`, as the dense elimination recorded it.
    pivots: Vec<usize>,
    /// Per column: the storage row holding the pivot.
    rows: Vec<usize>,
    /// Per column: storage indices of the entries the pivot is chosen
    /// from, in the dense scan's order — the diagonal position first, then
    /// the structural entries below it.
    candidates: Lists,
    /// Per column: columns right of the diagonal that may be nonzero in
    /// the pivot row (its update and back-substitution columns), ascending.
    upper: Lists,
    /// Per column: storage rows to eliminate, in the dense order.
    targets: Lists,
    /// Symbolic working copy of the pattern, fill included, in the dense
    /// layout.
    fill: Vec<bool>,
    /// The storage row at each position of the dense layout (scratch).
    perm: Vec<usize>,
}

/// Why a planned elimination stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// No usable pivot: the dense elimination stops at the same column.
    Singular,
    /// The pivot differs from the plan, or an entry is not finite, at this
    /// column; nothing in it has been touched yet.
    Diverged(usize),
}

impl LuPlan {
    /// Symbolic elimination of `pattern` with `self.pivots`.
    fn build(&mut self, n: usize, pattern: &[bool]) {
        let fill = &mut self.fill;
        fill.clear();
        fill.extend_from_slice(pattern);
        self.perm.clear();
        self.perm.extend(0..n);
        self.rows.clear();
        self.candidates.clear();
        self.upper.clear();
        self.targets.clear();
        for col in 0..n {
            let perm = &self.perm;
            self.candidates.items.push(perm[col] * n + col);
            self.candidates.items.extend(
                (col + 1..n)
                    .filter(|&r| fill[r * n + col])
                    .map(|r| perm[r] * n + col),
            );
            self.candidates.close();
            let p = self.pivots[col];
            if p != col {
                for k in 0..n {
                    fill.swap(col * n + k, p * n + k);
                }
                self.perm.swap(col, p);
            }
            self.rows.push(self.perm[col]);
            self.upper
                .items
                .extend((col + 1..n).filter(|&k| fill[col * n + k]));
            self.upper.close();
            for r in col + 1..n {
                if fill[r * n + col] {
                    self.targets.items.push(self.perm[r]);
                    fill[r * n + col] = false;
                    for &k in self.upper.get(col) {
                        fill[r * n + k] = true;
                    }
                }
            }
            self.targets.close();
        }
    }

    /// Replays the dense elimination over structural entries, stopping
    /// before the first column where the plan no longer holds.
    fn eliminate(&self, n: usize, a: &mut [f64], b: &mut [f64]) -> Result<(), Stop> {
        for col in 0..n {
            let candidates = self.candidates.get(col);
            let mut pivot_at = candidates[0];
            let mut pivot_mag = a[pivot_at].abs();
            // Partial pivoting bounds every factor by 1 in magnitude, so the
            // factors are finite when the column's entries are.
            let mut finite = pivot_mag <= f64::MAX;
            for &i in &candidates[1..] {
                let mag = a[i].abs();
                finite &= mag <= f64::MAX;
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_at = i;
                }
            }
            if pivot_mag < PIVOT_FLOOR {
                return Err(Stop::Singular);
            }
            let prow = self.rows[col];
            if pivot_at != prow * n + col || !finite {
                return Err(Stop::Diverged(col));
            }
            let pivot = a[pivot_at];
            let upper = self.upper.get(col);
            for &row in self.targets.get(col) {
                let entry = a[row * n + col];
                // A zero entry gives a zero factor, which the dense loop skips.
                if entry == 0.0 {
                    continue;
                }
                let factor = entry / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[row * n + col] = 0.0;
                for &k in upper {
                    a[row * n + k] -= factor * a[prow * n + k];
                }
                b[row] -= factor * b[prow];
            }
        }
        Ok(())
    }

    /// Back-substitution over structural entries.
    fn back_substitute(&self, n: usize, a: &[f64], b: &[f64], x: &mut [f64]) {
        for col in (0..n).rev() {
            let row = self.rows[col];
            let mut sum = b[row];
            for &k in self.upper.get(col) {
                sum -= a[row * n + k] * x[k];
            }
            x[col] = sum / a[row * n + col];
        }
    }

    /// Applies the dense elimination's row swaps of columns `..upto` to a
    /// system the plan left in place, giving the dense layout.
    fn restore_layout(&self, n: usize, a: &mut [f64], b: &mut [f64], upto: usize) {
        for (col, &p) in self.pivots[..upto].iter().enumerate() {
            swap_rows(n, a, b, col, p);
        }
    }
}

/// Swaps rows `col` and `other` (`other ≥ col`) of the system.
fn swap_rows(n: usize, a: &mut [f64], b: &mut [f64], col: usize, other: usize) {
    if other != col {
        let (top, bottom) = a.split_at_mut(other * n);
        top[col * n..(col + 1) * n].swap_with_slice(&mut bottom[..n]);
        b.swap(col, other);
    }
}

/// Gaussian elimination with partial pivoting over the whole matrix, from
/// column `from` on, recording each column's pivot row. Returns `false`
/// when a column has no usable pivot.
fn eliminate_dense(
    n: usize,
    a: &mut [f64],
    b: &mut [f64],
    from: usize,
    pivots: &mut [usize],
) -> bool {
    for col in from..n {
        // Partial pivot: largest magnitude in this column at or below the
        // diagonal.
        let mut pivot_row = col;
        let mut pivot_mag = a[col * n + col].abs();
        for row in (col + 1)..n {
            let mag = a[row * n + col].abs();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = row;
            }
        }
        if pivot_mag < PIVOT_FLOOR {
            return false;
        }
        pivots[col] = pivot_row;
        swap_rows(n, a, b, col, pivot_row);
        let pivot = a[col * n + col];
        for row in (col + 1)..n {
            let factor = a[row * n + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            a[row * n + col] = 0.0;
            for k in (col + 1)..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    true
}

/// Back-substitution over the whole upper triangle.
fn back_substitute_dense(n: usize, a: &[f64], b: &[f64], x: &mut [f64]) {
    for row in (0..n).rev() {
        let mut sum = b[row];
        for k in (row + 1)..n {
            sum -= a[row * n + k] * x[k];
        }
        x[row] = sum / a[row * n + row];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl MnaSystem {
        /// The reference: the dense elimination from column 0, ignoring
        /// any plan.
        fn solve_dense(&mut self) -> Option<Vec<f64>> {
            let n = self.n;
            let mut x = vec![0.0; n];
            let mut pivots = vec![0; n];
            eliminate_dense(n, &mut self.a, &mut self.b, 0, &mut pivots).then(|| {
                back_substitute_dense(n, &self.a, &self.b, &mut x);
                x
            })
        }

        fn solve(&mut self) -> Option<Vec<f64>> {
            let mut x = vec![0.0; self.n];
            self.solve_into(&mut x).then_some(x)
        }

        /// A conductance between two terminals (`None` is ground, whose
        /// row and column do not exist).
        fn conductance(&mut self, a: Terminal, b: Terminal, g: f64) {
            if let Some(i) = a {
                let s = self.slot(i, i);
                self.add(s, g);
                if let Some(j) = b {
                    let s = self.slot(i, j);
                    self.add(s, -g);
                }
            }
            if let Some(j) = b {
                let s = self.slot(j, j);
                self.add(s, g);
                if let Some(i) = a {
                    let s = self.slot(j, i);
                    self.add(s, -g);
                }
            }
        }

        fn jacobian(&mut self, row: Terminal, col: Terminal, v: f64) {
            if let (Some(r), Some(c)) = (row, col) {
                let s = self.slot(r, c);
                self.add(s, v);
            }
        }

        /// A voltage-source branch current (unknown `k`) leaving `pos` and
        /// entering `neg`; its row pins `v(pos) − v(neg)`.
        fn branch(&mut self, k: usize, pos: Terminal, neg: Terminal) {
            for (node, sign) in [(pos, 1.0), (neg, -1.0)] {
                if let Some(i) = node {
                    let s = self.slot(i, k);
                    self.add(s, sign);
                    let s = self.slot(k, i);
                    self.add(s, sign);
                }
            }
        }
    }

    /// A stamp terminal: `None` is ground.
    type Terminal = Option<usize>;

    #[test]
    fn resistor_divider_solves_exactly() {
        // 1 V source -> 1 kΩ -> node0 -> 1 kΩ -> ground: node0 = 0.5 V.
        // Unknowns: v0 (0), v_src (1), i_branch (2).
        let mut sys = MnaSystem::new(3);
        let v0 = Some(0);
        let vs = Some(1);
        sys.conductance(vs, v0, 1e-3);
        sys.conductance(v0, None, 1e-3);
        sys.branch(2, vs, None);
        sys.stamp_rhs(2, 1.0);
        let x = sys.solve().expect("non-singular");
        assert!((x[0] - 0.5).abs() < 1e-12, "divider mid = {}", x[0]);
        assert!((x[1] - 1.0).abs() < 1e-12);
        // Branch current: by the stamp convention it *leaves* the positive
        // node into the source, so a delivering source reads negative —
        // 1 V over 2 kΩ gives −0.5 mA.
        assert!((x[2] + 0.5e-3).abs() < 1e-12, "i_branch = {}", x[2]);
    }

    #[test]
    fn singular_matrix_is_reported() {
        // A floating node with no conductance anywhere.
        let mut sys = MnaSystem::new(2);
        sys.conductance(Some(0), None, 1.0);
        assert!(sys.solve().is_none());
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // Pure voltage source between two nodes bridged by a conductance:
        // the branch row has a zero diagonal until pivoted.
        let mut sys = MnaSystem::new(3);
        let a = Some(0);
        let b = Some(1);
        sys.conductance(a, None, 1.0);
        sys.conductance(b, None, 1.0);
        sys.branch(2, a, b);
        sys.stamp_rhs(2, 0.4);
        let x = sys.solve().expect("pivoting succeeds");
        assert!((x[0] - x[1] - 0.4).abs() < 1e-12);
        assert!(((x[0] + x[1]) - 0.0).abs() < 1e-12, "symmetric split");
    }

    #[test]
    fn non_finite_column_hands_over_before_touching_it() {
        let stamp = |sys: &mut MnaSystem, poison: f64| {
            sys.clear();
            sys.conductance(Some(0), Some(1), 2.0);
            sys.conductance(Some(1), Some(2), 1.0);
            sys.conductance(Some(2), None, 1.0);
            // Below column 0's pivot; zero unless poisoned.
            sys.jacobian(Some(1), Some(0), poison);
            sys.stamp_rhs(0, 1.0);
        };
        let mut sys = MnaSystem::new(3);
        stamp(&mut sys, 0.0);
        assert!(sys.solve().is_some() && sys.planned);
        for poison in [f64::NAN, f64::INFINITY] {
            stamp(&mut sys, poison);
            let before = sys.a.clone();
            let stop = sys.plan.eliminate(3, &mut sys.a, &mut sys.b);
            assert_eq!(stop, Err(Stop::Diverged(0)), "{poison}");
            assert!(before
                .iter()
                .zip(&sys.a)
                .all(|(x, y)| x.to_bits() == y.to_bits()));
            stamp(&mut sys, poison);
            let mut reference = sys.clone();
            assert!(
                same_bits(&sys.solve(), &reference.solve_dense()),
                "{poison}"
            );
        }
    }

    /// One stamp of a random system; its value comes from a value set.
    #[derive(Debug, Clone, Copy)]
    enum Stamp {
        Conductance(Terminal, Terminal),
        Jacobian(Terminal, Terminal),
        Branch(usize, Terminal, Terminal),
        Rhs(usize),
    }

    fn node(rng: &mut StdRng, nodes: usize) -> Terminal {
        // About one terminal in eight is ground.
        if rng.gen_range(0..8) == 0 {
            None
        } else {
            Some(rng.gen_range(0..nodes))
        }
    }

    /// A random MNA-shaped pattern over `n` unknowns: a conductance from
    /// every node to another node or ground, a few more conductances and
    /// one-sided derivatives, and `n − nodes` voltage-source branches (rows
    /// with a zero diagonal).
    fn random_stamps(rng: &mut StdRng, n: usize) -> Vec<Stamp> {
        let nodes = (n - n / 3).max(1);
        let mut stamps = Vec::new();
        for i in 0..nodes {
            let other = match node(rng, nodes) {
                Some(j) if j == i => None,
                other => other,
            };
            stamps.push(Stamp::Conductance(Some(i), other));
        }
        for _ in 0..rng.gen_range(0..=nodes) {
            stamps.push(Stamp::Conductance(node(rng, nodes), node(rng, nodes)));
            stamps.push(Stamp::Jacobian(node(rng, nodes), node(rng, nodes)));
        }
        for branch in nodes..n {
            // Distinct positive terminals keep the branch rows independent.
            let pos = branch - nodes;
            let neg = match node(rng, nodes) {
                Some(j) if j == pos => None,
                neg => neg,
            };
            stamps.push(Stamp::Branch(branch, Some(pos), neg));
        }
        for row in 0..n {
            stamps.push(Stamp::Rhs(row));
        }
        stamps
    }

    /// Magnitudes over twelve decades, either sign.
    fn random_values(rng: &mut StdRng, count: usize) -> Vec<f64> {
        (0..count)
            .map(|_| {
                let mag = 10f64.powf(rng.gen_range(-9.0..3.0));
                if rng.gen_bool(0.5) {
                    mag
                } else {
                    -mag
                }
            })
            .collect()
    }

    fn assemble(sys: &mut MnaSystem, stamps: &[Stamp], values: &[f64]) {
        sys.clear();
        for (&stamp, &v) in stamps.iter().zip(values) {
            match stamp {
                Stamp::Conductance(p, q) => sys.conductance(p, q, v),
                Stamp::Jacobian(r, c) => sys.jacobian(r, c, v),
                // Branch couplings are ±1 whatever the value set says.
                Stamp::Branch(k, p, q) => sys.branch(k, p, q),
                Stamp::Rhs(r) => sys.stamp_rhs(r, v),
            }
        }
    }

    fn same_bits(a: &Option<Vec<f64>>, b: &Option<Vec<f64>>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some(a), Some(b)) => a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            _ => false,
        }
    }

    #[test]
    fn planned_solve_matches_dense_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let (mut replayed, mut replanned, mut singular, mut non_finite) = (0, 0, 0, 0);
        for case in 0..400 {
            let n = rng.gen_range(1..=30);
            let stamps = random_stamps(&mut rng, n);
            let base = random_values(&mut rng, stamps.len());
            // One system is reused across the value sets, as in a Newton
            // loop: the first solve plans, the others replay or re-plan.
            let mut sys = MnaSystem::new(n);
            let jitter: Vec<f64> = base
                .iter()
                .map(|v| v * (1.0 + rng.gen_range(-1e-3..1e-3)))
                .collect();
            let fresh = random_values(&mut rng, stamps.len());
            // Zeroing every value on one unknown's stamps empties its row.
            let dead = Some(rng.gen_range(0..n));
            let zeroed: Vec<f64> = stamps
                .iter()
                .zip(&jitter)
                .map(|(s, &v)| match *s {
                    Stamp::Conductance(p, q) | Stamp::Jacobian(p, q) if p == dead || q == dead => {
                        0.0
                    }
                    _ => v,
                })
                .collect();
            // One non-finite or huge value: the plan hands over to the
            // dense loop, whose NaNs and infinities it must reproduce.
            let mut extreme = jitter.clone();
            let at = rng.gen_range(0..extreme.len());
            extreme[at] =
                [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e300][rng.gen_range(0..4usize)];
            for values in [&base, &jitter, &fresh, &zeroed, &base, &extreme] {
                let before = sys.plan.pivots.clone();
                let was_planned = sys.planned;
                assemble(&mut sys, &stamps, values);
                let got = sys.solve();
                let mut reference = MnaSystem::new(n);
                assemble(&mut reference, &stamps, values);
                let want = reference.solve_dense();
                assert!(
                    same_bits(&got, &want),
                    "case {case} (n = {n}): planned {got:?} vs dense {want:?}"
                );
                match (&got, was_planned) {
                    (None, _) => singular += 1,
                    (Some(x), _) if x.iter().any(|v| !v.is_finite()) => non_finite += 1,
                    (Some(_), true) if sys.plan.pivots == before => replayed += 1,
                    (Some(_), true) => replanned += 1,
                    (Some(_), false) => {}
                }
            }
        }
        // Every path ran: replay, dense fallback with re-plan, singular,
        // non-finite.
        assert!(replayed > 300, "{replayed} replayed solves");
        assert!(replanned > 300, "{replanned} re-planned solves");
        assert!(singular > 100, "{singular} singular systems");
        assert!(non_finite > 100, "{non_finite} non-finite solutions");
    }
}

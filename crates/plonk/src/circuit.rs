//! PLONK arithmetization: selector vectors and the copy-constraint
//! permutation, derived from a compiled `zkperf-circuit` circuit.

use zkperf_ff::PrimeField;
use zkperf_poly::{root_of_unity, Radix2Domain};
use zkperf_trace as trace;

use zkperf_circuit::{LinearCombination, R1cs};

/// Why a circuit could not be arithmetized for PLONK.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArithmetizeError {
    /// The padded gate count exceeds the field's FFT domain.
    TooManyGates {
        /// Gates requested.
        gates: usize,
    },
}

impl std::fmt::Display for ArithmetizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArithmetizeError::TooManyGates { gates } => {
                write!(f, "{gates} gates exceed the FFT domain")
            }
        }
    }
}

impl std::error::Error for ArithmetizeError {}

/// One wire reference per gate slot.
pub(crate) type WireId = usize;

/// A PLONK circuit: selector columns, per-gate wire assignments, and the
/// copy-constraint permutation, all sized to one evaluation domain — the
/// least of order `2^k` or `3·2^k` (and at least 4) that holds the gates.
///
/// Gate equation (per row `i`):
/// `q_L·a + q_R·b + q_O·c + q_M·a·b + q_C + PI(i) = 0`.
#[derive(Debug, Clone)]
pub struct PlonkCircuit<F: PrimeField> {
    /// Domain size (padded number of gates).
    pub n: usize,
    /// Left-input selector.
    pub q_l: Vec<F>,
    /// Right-input selector.
    pub q_r: Vec<F>,
    /// Output selector.
    pub q_o: Vec<F>,
    /// Multiplication selector.
    pub q_m: Vec<F>,
    /// Constant selector.
    pub q_c: Vec<F>,
    /// Wire id feeding each gate's a/b/c slot.
    pub wires: [Vec<WireId>; 3],
    /// σ as encoded field values per column (k_col·ω^row of the linked slot).
    pub sigma: [Vec<F>; 3],
    /// Rows carrying public inputs (gate `q_L = 1` pinning wire = input).
    pub public_rows: Vec<usize>,
    /// Wires in the witness the caller supplies (the R1CS wire count).
    pub num_base_wires: usize,
    /// Total wires in the permutation argument: base wires plus the
    /// auxiliary wires introduced when multi-term linear combinations are
    /// lowered to addition-gate chains.
    pub num_wires: usize,
    /// Defining pair of each auxiliary wire, in evaluation order: aux
    /// wire `num_base_wires + i` equals `c₀·w₀ + c₁·w₁` over earlier
    /// wires (base or auxiliary).
    pub aux_defs: Vec<[(WireId, F); 2]>,
    /// The coset labels (k₀ = 1, k₁, k₂) used by the permutation encoding.
    pub coset_ks: [F; 3],
}

/// Growable gate lists used while lowering an R1CS, before the domain
/// size is known.
struct GateBuilder<F: PrimeField> {
    q_l: Vec<F>,
    q_r: Vec<F>,
    q_o: Vec<F>,
    q_m: Vec<F>,
    wires: [Vec<WireId>; 3],
    num_base_wires: usize,
    aux_defs: Vec<[(WireId, F); 2]>,
}

impl<F: PrimeField> GateBuilder<F> {
    fn push_gate(&mut self, q: [F; 4], w: [WireId; 3]) {
        self.q_l.push(q[0]);
        self.q_r.push(q[1]);
        self.q_o.push(q[2]);
        self.q_m.push(q[3]);
        for (col, wire) in self.wires.iter_mut().zip(w) {
            col.push(wire);
        }
    }

    /// Reduces a linear combination to a single `(wire, coefficient)`
    /// pair. Zero- and one-term combinations are free; a k-term
    /// combination spends k−1 addition gates (`q_L·wₐ + q_R·w_b − aux = 0`),
    /// each defining a fresh auxiliary wire that carries the running sum.
    fn lower(&mut self, lc: &LinearCombination<F>) -> (WireId, F) {
        match lc.terms() {
            [] => (0, F::zero()), // the constant-one wire with coefficient 0
            [(v, c)] => (v.index(), *c),
            terms => {
                let (mut acc_w, mut acc_c) = (terms[0].0.index(), terms[0].1);
                for (v, c) in &terms[1..] {
                    let aux = self.num_base_wires + self.aux_defs.len();
                    self.aux_defs.push([(acc_w, acc_c), (v.index(), *c)]);
                    self.push_gate(
                        [acc_c, *c, -F::one(), F::zero()],
                        [acc_w, v.index(), aux],
                    );
                    acc_w = aux;
                    acc_c = F::one();
                }
                (acc_w, acc_c)
            }
        }
    }
}

impl<F: PrimeField> PlonkCircuit<F> {
    /// Arithmetizes an R1CS row `A·B = C` (each side an arbitrary linear
    /// combination): multi-term sides are first lowered to a single
    /// auxiliary wire through a chain of addition gates, then the row
    /// becomes one multiplication gate
    /// (`cₐwₐ · c_b w_b = c_c w_c  ⇒  q_M = cₐc_b, q_O = −c_c`). Each
    /// public wire additionally gets one input-pinning gate.
    ///
    /// # Errors
    ///
    /// [`ArithmetizeError::TooManyGates`] when the lowered gate count
    /// exceeds the field's FFT domain.
    pub fn from_r1cs(r1cs: &R1cs<F>) -> Result<Self, ArithmetizeError> {
        let _g = trace::region_profile("plonk_arithmetize");
        let num_public = r1cs.num_public_wires();

        let mut gb = GateBuilder {
            q_l: Vec::new(),
            q_r: Vec::new(),
            q_o: Vec::new(),
            q_m: Vec::new(),
            wires: [Vec::new(), Vec::new(), Vec::new()],
            num_base_wires: r1cs.num_wires(),
            aux_defs: Vec::new(),
        };

        // Public-input rows first: q_L·a + PI = 0 pins wire a to the input.
        // Unused slots alias the a-wire so the copy constraint is
        // trivially satisfied.
        for wire in 0..num_public {
            gb.push_gate(
                [F::one(), F::zero(), F::zero(), F::zero()],
                [wire, wire, wire],
            );
        }
        let public_rows: Vec<usize> = (0..num_public).collect();

        // One multiplication gate per R1CS row, preceded by the addition
        // gates its sides require.
        for cst in r1cs.constraints() {
            let (wa, ca) = gb.lower(&cst.a);
            let (wb, cb) = gb.lower(&cst.b);
            let (wc, cc) = gb.lower(&cst.c);
            gb.push_gate([F::zero(), F::zero(), -cc, ca * cb], [wa, wb, wc]);
            trace::control(2);
        }

        let raw_gates = gb.q_l.len();
        // The least domain order (2^k or 3·2^k, at least 4) that holds the
        // gates. The quotient needs the 4n domain too, which exists when a
        // generator of order 4n does; the n domain is only used here, to
        // encode the permutation.
        let domain = Radix2Domain::<F>::new(raw_gates.max(4))
            .filter(|d| d.size().checked_mul(4).and_then(root_of_unity::<F>).is_some())
            .ok_or(ArithmetizeError::TooManyGates { gates: raw_gates })?;
        let n = domain.size();

        // Padding rows: all-zero selectors, wires alias wire 0 (the
        // constant-one wire, present in every witness).
        let GateBuilder {
            mut q_l,
            mut q_r,
            mut q_o,
            mut q_m,
            mut wires,
            num_base_wires,
            aux_defs,
        } = gb;
        q_l.resize(n, F::zero());
        q_r.resize(n, F::zero());
        q_o.resize(n, F::zero());
        q_m.resize(n, F::zero());
        let q_c = vec![F::zero(); n];
        for col in wires.iter_mut() {
            col.resize(n, 0);
        }

        // Copy-constraint permutation: cycle the positions of each wire.
        let num_wires = num_base_wires + aux_defs.len();
        let ks = Self::coset_labels(&domain);
        let encode = |col: usize, row: usize| ks[col] * domain.element(row);
        let mut positions: Vec<Vec<(usize, usize)>> = vec![Vec::new(); num_wires];
        for col in 0..3 {
            for row in 0..n {
                positions[wires[col][row]].push((col, row));
            }
        }
        let zero = vec![F::zero(); n];
        let mut sigma = [zero.clone(), zero.clone(), zero];
        for cycle in &positions {
            for (i, &(col, row)) in cycle.iter().enumerate() {
                let (ncol, nrow) = cycle[(i + 1) % cycle.len()];
                sigma[col][row] = encode(ncol, nrow);
            }
        }

        Ok(PlonkCircuit {
            n,
            q_l,
            q_r,
            q_o,
            q_m,
            q_c,
            wires,
            sigma,
            public_rows,
            num_base_wires,
            num_wires,
            aux_defs,
            coset_ks: ks,
        })
    }

    /// Extends a base R1CS witness with the auxiliary-wire values, in
    /// definition order.
    pub fn extend_witness(&self, witness: &[F]) -> Vec<F> {
        let mut full = Vec::with_capacity(self.num_wires);
        full.extend_from_slice(witness);
        for def in &self.aux_defs {
            let v = def.iter().fold(F::zero(), |acc, &(w, c)| acc + c * full[w]);
            full.push(v);
        }
        full
    }

    /// Picks coset labels `1, k₁, k₂` such that `H`, `k₁H`, `k₂H` are
    /// pairwise disjoint: the smallest integers whose n-th powers differ
    /// from each other's and from 1 (`kH = k'H` iff `kⁿ = k'ⁿ`).
    fn coset_labels(domain: &Radix2Domain<F>) -> [F; 3] {
        let n = zkperf_ff::BigUint::from_u64(domain.size() as u64);
        let mut labels = [F::one(); 3];
        let mut nth_powers = [F::one(); 3];
        let mut found = 1;
        let mut k = F::one();
        while found < 3 {
            k += F::one();
            let kn = k.pow(&n);
            if !nth_powers[..found].contains(&kn) {
                labels[found] = k;
                nth_powers[found] = kn;
                found += 1;
            }
        }
        labels
    }

    /// Gate-slot values `(a, b, c)` columns drawn from a full R1CS
    /// witness (auxiliary wires are computed here).
    pub fn wire_columns(&self, witness: &[F]) -> [Vec<F>; 3] {
        let full = self.extend_witness(witness);
        let col = |c: usize| -> Vec<F> {
            self.wires[c].iter().map(|&w| full[w]).collect()
        };
        [col(0), col(1), col(2)]
    }

    /// Public-input values (from the witness prefix) in row order.
    pub fn public_values(&self, witness: &[F]) -> Vec<F> {
        self.public_rows.iter().map(|&r| witness[r]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkperf_ff::Field;
    use zkperf_circuit::library::exponentiate;
    use zkperf_ff::bn254::Fr;

    #[test]
    fn exponentiate_arithmetizes() {
        let circuit = exponentiate::<Fr>(6);
        let plonk = PlonkCircuit::from_r1cs(circuit.r1cs()).unwrap();
        // 6 constraints + 3 public wires (1, y, x) = 9 gates → n = 3·4.
        assert_eq!(plonk.n, 12);
        assert_eq!(plonk.public_rows.len(), 3);
        // Gate equation holds row-by-row on a real witness.
        let w = circuit.generate_witness(&[Fr::from_u64(2)], &[]).unwrap();
        let cols = plonk.wire_columns(w.full());
        let pi = plonk.public_values(w.full());
        // `row` indexes three wire columns and five selector columns at
        // once; a zipped iterator would only obscure that.
        #[allow(clippy::needless_range_loop)]
        for row in 0..plonk.n {
            let (a, b, c) = (cols[0][row], cols[1][row], cols[2][row]);
            let mut acc = plonk.q_l[row] * a
                + plonk.q_r[row] * b
                + plonk.q_o[row] * c
                + plonk.q_m[row] * a * b
                + plonk.q_c[row];
            if let Some(idx) = plonk.public_rows.iter().position(|&r| r == row) {
                acc -= pi[idx];
            }
            assert!(acc.is_zero(), "gate {row} violated");
        }
    }

    #[test]
    fn sigma_is_a_permutation_of_encoded_positions() {
        let circuit = exponentiate::<Fr>(4);
        let plonk = PlonkCircuit::from_r1cs(circuit.r1cs()).unwrap();
        let domain = Radix2Domain::<Fr>::new(plonk.n).unwrap();
        let mut all: Vec<Fr> = Vec::new();
        let mut images: Vec<Fr> = Vec::new();
        for col in 0..3 {
            for row in 0..plonk.n {
                all.push(plonk.coset_ks[col] * domain.element(row));
                images.push(plonk.sigma[col][row]);
            }
        }
        all.sort();
        images.sort();
        assert_eq!(all, images, "σ permutes the 3n encoded slots");
    }

    /// Every gate must hold on the extended witness; shared with the
    /// multi-term lowering test below.
    #[allow(clippy::needless_range_loop)] // row indexes 8 parallel vectors
    fn assert_gates_hold(plonk: &PlonkCircuit<Fr>, witness: &[Fr]) {
        let cols = plonk.wire_columns(witness);
        let pi = plonk.public_values(witness);
        for row in 0..plonk.n {
            let (a, b, c) = (cols[0][row], cols[1][row], cols[2][row]);
            let mut acc = plonk.q_l[row] * a
                + plonk.q_r[row] * b
                + plonk.q_o[row] * c
                + plonk.q_m[row] * a * b
                + plonk.q_c[row];
            if let Some(idx) = plonk.public_rows.iter().position(|&r| r == row) {
                acc -= pi[idx];
            }
            assert!(acc.is_zero(), "gate {row} violated");
        }
    }

    #[test]
    fn multi_term_constraints_are_lowered_to_addition_chains() {
        // x + y = z uses a multi-term LC: (x + y)·1 = z. The lowering
        // spends one addition gate and one auxiliary wire on it.
        let src = "circuit s { public input x; private input y; output z = x + y; }";
        let circuit = zkperf_circuit::lang::compile::<Fr>(src).unwrap();
        let plonk = PlonkCircuit::from_r1cs(circuit.r1cs()).unwrap();
        assert!(!plonk.aux_defs.is_empty(), "no auxiliary wires introduced");
        assert_eq!(plonk.num_wires, plonk.num_base_wires + plonk.aux_defs.len());
        let w = circuit
            .generate_witness(&[Fr::from_u64(3)], &[Fr::from_u64(4)])
            .unwrap();
        assert_gates_hold(&plonk, w.full());
        // The extended witness carries the running sums after the base
        // wires.
        let full = plonk.extend_witness(w.full());
        assert_eq!(full.len(), plonk.num_wires);
        assert_eq!(&full[..w.full().len()], w.full());
    }

    #[test]
    fn poseidon_circuit_arithmetizes_and_gates_hold() {
        // The Poseidon gadget's MDS rows are the heaviest multi-term LCs
        // in the library; the lowering must keep every gate satisfied.
        let circuit = zkperf_circuit::library::merkle_membership_poseidon::<Fr>(2);
        let path = [(Fr::from_u64(11), true), (Fr::from_u64(12), false)];
        let (inputs, _root) =
            zkperf_circuit::library::merkle_path_inputs_poseidon(Fr::from_u64(7), &path);
        let w = circuit.generate_witness(&[], &inputs).unwrap();
        let plonk = PlonkCircuit::from_r1cs(circuit.r1cs()).unwrap();
        assert!(!plonk.aux_defs.is_empty());
        assert_gates_hold(&plonk, w.full());
    }
}

//! A computational-chemistry-shaped workload — the application domain
//! SRUMMA was built for (it became the `ga_dgemm` of Global Arrays /
//! NWChem). Self-consistent-field-style iterations are dominated by
//! chains of dense products with *transposed* and *rectangular*
//! operands, e.g. density-matrix builds `D = C_occ · C_occᵀ` and basis
//! transformations `F' = Xᵀ · F · X`.
//!
//! This example runs that chain on real threads, verifying every link,
//! then sizes the same chain on the simulated 128-CPU Altix.
//!
//! ```sh
//! cargo run --release --example chemistry_workload
//! ```

use srumma::core::driver::{measure_gflops, multiply_threads, serial_reference};
use srumma::{Algorithm, GemmSpec, Machine, Matrix, Op};

fn verified(tag: &str, spec: &GemmSpec, a: &Matrix, b: &Matrix, nranks: usize) -> Matrix {
    let (c, secs) = multiply_threads(nranks, &Algorithm::srumma_default(), spec, a, b);
    let expect = serial_reference(spec, a, b);
    let err = srumma::dense::max_abs_diff(&c, &expect);
    assert!(err < 1e-8, "{tag}: verification failed (err {err})");
    println!(
        "  {tag:<28} {} {:>5}x{:<5} k={:<5} {:.3} s  err {err:.1e}",
        spec.case_label(),
        spec.m,
        spec.n,
        spec.k,
        secs
    );
    c
}

fn main() {
    let nranks = 4;
    let nbasis = 600; // basis functions
    let nocc = 150; // occupied orbitals

    println!("SCF-like dense algebra chain on {nranks} threads:\n");

    // Orbital coefficients (nbasis x nocc) and overlap-orthogonalizer.
    let c_occ = Matrix::random(nbasis, nocc, 7);
    let x = Matrix::random(nbasis, nbasis, 8);
    let f = Matrix::random(nbasis, nbasis, 9);

    // 1. Density build: D = C_occ * C_occ^T  (rectangular, B transposed).
    //    Logical operands: A = C_occ (nbasis x nocc), op(B) = C_occ^T.
    let spec_d = GemmSpec::new(Op::N, Op::T, nbasis, nbasis, nocc);
    // The driver takes *logical* operands and reads them in place: B is
    // the k x n matrix op(B) itself, here C_occ^T. `Op::T` only labels the
    // case; nothing is transposed or copied on the way to the ranks.
    let c_occ_t = c_occ.transposed();
    let _d = verified("density D = C C^T", &spec_d, &c_occ, &c_occ_t, nranks);

    // 2. Half transform: G = F * X (square).
    let spec_g = GemmSpec::square(nbasis);
    let g = verified("half transform G = F X", &spec_g, &f, &x, nranks);

    // 3. Full transform: F' = X^T * G (A transposed).
    let spec_fp = GemmSpec::new(Op::T, Op::N, nbasis, nbasis, nbasis);
    let x_t = x.transposed();
    let _fp = verified("full transform F' = X^T G", &spec_fp, &x_t, &g, nranks);

    // Now size the same chain on the simulated 128-CPU SGI Altix.
    println!("\nSame chain modeled on the 128-CPU SGI Altix (paper scale):");
    let altix = Machine::sgi_altix();
    let big = 6000; // production basis set
    let bigocc = 1500;
    for (tag, spec) in [
        (
            "density D = C C^T",
            GemmSpec::new(Op::N, Op::T, big, big, bigocc),
        ),
        ("half transform G = F X", GemmSpec::square(big)),
        (
            "full transform F' = X^T G",
            GemmSpec::new(Op::T, Op::N, big, big, big),
        ),
    ] {
        let s = measure_gflops(&altix, 128, &Algorithm::srumma_default(), &spec);
        let p = measure_gflops(&altix, 128, &Algorithm::summa_default(), &spec);
        println!(
            "  {tag:<28} {}: SRUMMA {s:>6.0} GF/s vs pdgemm {p:>6.1} GF/s ({:.0}x)",
            spec.case_label(),
            s / p
        );
    }
}

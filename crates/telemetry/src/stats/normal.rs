//! The workspace's one standard-normal draw.

use rand::Rng;

/// One standard normal draw by Box–Muller: `u1 ∈ [ε, 1)` is drawn first,
/// then `u2 ∈ [0, 1)`, so a caller's stream advances by exactly two
/// uniforms per draw.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

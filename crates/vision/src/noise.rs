//! The per-pixel instance-noise stream behind [`Bitmap::perturb`] and
//! [`dhash128_noised`].
//!
//! Pixel `i` of an image is moved by `r_i − amplitude`, where
//! `r_i = s_i % (2·amplitude + 1)` and `s_1, s_2, …` are successive states
//! of a plain xorshift64 generator (shifts 13 / 7 / 17, **no** output
//! multiply — this is not xorshift64\*) started from the seed. Taken
//! literally that is one serial dependency chain as long as the image:
//! every step waits on the previous one, and a 128×80 screenshot costs
//! 10,240 of them.
//!
//! The chain is broken exactly. A xorshift step is linear over GF(2) — the
//! new state is a fixed 64×64 bit-matrix `M` times the old one — so the
//! state [`STRIDE`] steps ahead is `M^STRIDE · s`, which [`jump`] evaluates
//! with eight lookups in a byte-indexed table built at compile time.
//! [`LANES`] lanes therefore start `STRIDE` pixels apart and advance in
//! lockstep, each step independent of the other lanes', and together they
//! produce the very sequence the one-step-per-pixel loop produces (kept
//! under `#[cfg(test)]` as the oracle every property here is pinned to).
//!
//! [`Bitmap::perturb`]: crate::bitmap::Bitmap::perturb
//! [`dhash128_noised`]: crate::dhash::dhash128_noised

/// Pixels one lane covers per group: the one distance [`JUMP`] is built for.
const STRIDE: usize = 128;
/// Lanes advanced in lockstep; a group is `LANES * STRIDE` pixels.
const LANES: usize = 16;
/// Remainders packed into one `u64` per lane before they are stored, so a
/// lane writes one word every `FIELDS` steps instead of one scalar per
/// step. Sixteen bits each: a remainder is at most `2 * 255`.
const FIELDS: usize = 4;

/// One xorshift64 step. `const` so the table builder runs the same code.
#[inline(always)]
const fn step(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// `JUMP[b][v]` is `M^STRIDE` applied to the state whose byte `b` is `v`
/// and whose other bytes are zero. Because [`step`] only shifts and xors,
/// `step(a ^ b) == step(a) ^ step(b)`, so the jump of any state is the xor
/// of the jumps of its eight bytes. 8 × 256 × 8 bytes = 16 KB, independent
/// of image geometry.
static JUMP: [[u64; 256]; 8] = jump_table();

const fn jump_table() -> [[u64; 256]; 8] {
    // Column `i` of `M^STRIDE`: the image of the `i`-th unit vector.
    let mut column = [0u64; 64];
    let mut i = 0;
    while i < 64 {
        let mut s = 1u64 << i;
        let mut k = 0;
        while k < STRIDE {
            s = step(s);
            k += 1;
        }
        column[i] = s;
        i += 1;
    }
    let mut table = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 8 {
        let mut v = 1usize;
        while v < 256 {
            // `v` without its lowest set bit is already filled in.
            table[b][v] = table[b][v & (v - 1)] ^ column[8 * b + v.trailing_zeros() as usize];
            v += 1;
        }
        b += 1;
    }
    table
}

/// The state `STRIDE` steps after `s`: `step` applied `STRIDE` times.
#[inline(always)]
fn jump(s: u64) -> u64 {
    let mut out = 0;
    for (b, table) in JUMP.iter().enumerate() {
        out ^= table[usize::from((s >> (8 * b)) as u8)];
    }
    out
}

/// Adds the noise stream keyed by `seed` to `pixels` in place, clamping
/// each pixel to `0..=255`.
pub(crate) fn apply(pixels: &mut [u8], seed: u64, amplitude: u8) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `apply_avx2` requires only that the running CPU
        // implements AVX2, which the CPUID-backed detection macro on the
        // line above has just reported.
        return unsafe { apply_avx2(pixels, seed, amplitude) };
    }
    apply_portable(pixels, seed, amplitude);
}

/// [`apply_portable`] compiled with AVX2, so the lane loop runs four
/// 64-bit lanes per register (and the clamp 16 pixels) instead of the
/// baseline x86-64 target's two. Same body, same output.
///
/// # Safety
///
/// The running CPU must implement AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn apply_avx2(pixels: &mut [u8], seed: u64, amplitude: u8) {
    apply_portable(pixels, seed, amplitude);
}

/// The one noise body behind [`apply`]. `#[inline(always)]` so each caller
/// compiles its own copy under its own target features: the portable one,
/// and [`apply_avx2`]'s.
#[inline(always)]
fn apply_portable(pixels: &mut [u8], seed: u64, amplitude: u8) {
    // Monomorphize the per-pixel modulo for the one amplitude the
    // simulated renderer actually uses (`INSTANCE_NOISE == 5` ⇒ span 11):
    // a 64-bit remainder is a scalar division, but 2^30 ≡ 1 (mod 11), so
    // the state's three 30-bit limbs sum to a 32-bit value in the same
    // residue class, and 32-bit operands fit the one widening multiply
    // vector units have. 0xBA2E8BA3 = (2^35 + 1) / 11, so the product
    // shifted down 35 bits is `x / 11` plus less than 1/88 — never enough
    // to reach the next integer.
    match amplitude {
        0 => {}
        5 => {
            const LIMB: u64 = (1 << 30) - 1;
            lanes(pixels, seed, 5, |s| {
                let x = (s & LIMB) + ((s >> 30) & LIMB) + (s >> 60);
                x - 11 * ((x * 0xBA2E_8BA3) >> 35)
            })
        }
        _ => {
            let span = 2 * u64::from(amplitude) + 1;
            lanes(pixels, seed, amplitude, move |s| s % span)
        }
    }
}

/// Groups of [`LANES`] lanes, [`STRIDE`] pixels each; `rem` maps a state to
/// its remainder modulo `2 * amplitude + 1`.
#[inline(always)]
fn lanes(pixels: &mut [u8], seed: u64, amplitude: u8, rem: impl Fn(u64) -> u64 + Copy) {
    let amplitude = i16::from(amplitude);
    let shift = |pixels: &mut [u8], rems: &[u16]| {
        for (p, &r) in pixels.iter_mut().zip(rems) {
            *p = (i16::from(*p) + r as i16 - amplitude).clamp(0, 255) as u8;
        }
    };
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut rems = [0u16; LANES * STRIDE];
    let mut groups = pixels.chunks_exact_mut(LANES * STRIDE);
    for group in &mut groups {
        let mut states = [state; LANES];
        for l in 1..LANES {
            states[l] = jump(states[l - 1]);
        }
        state = run(states, STRIDE, &mut rems, rem)[LANES - 1];
        shift(group, &rems);
    }
    // A remainder shorter than a group is one lane of the same loop.
    let tail = groups.into_remainder();
    run([state], tail.len(), &mut rems, rem);
    shift(tail, &rems);
}

/// Advances every lane `len` steps in lockstep (rounded up to a multiple
/// of [`FIELDS`]: the caller's buffer has the room, and only a tail, whose
/// final state nobody reads, has such a length), writes lane `l`'s
/// remainders to `rems[l * len..]` and returns the lanes' final states.
#[inline(always)]
fn run<const L: usize>(
    mut states: [u64; L],
    len: usize,
    rems: &mut [u16],
    rem: impl Fn(u64) -> u64,
) -> [u64; L] {
    for t in (0..len).step_by(FIELDS) {
        // Lanes are `len` pixels apart, so their remainders of one step
        // are not neighbours in memory; `FIELDS` steps of one lane are.
        let mut words = [0u64; L];
        for k in 0..FIELDS {
            for l in 0..L {
                states[l] = step(states[l]);
                words[l] |= rem(states[l]) << (16 * k);
            }
        }
        for l in 0..L {
            for (k, r) in rems[l * len + t..][..FIELDS].iter_mut().enumerate() {
                *r = (words[l] >> (16 * k)) as u16;
            }
        }
    }
    states
}

/// The stream as first written — one step per pixel, each waiting on the
/// one before — kept as the oracle the lanes are pinned to.
#[cfg(test)]
pub(crate) fn reference(pixels: &mut [u8], seed: u64, amplitude: u8) {
    if amplitude == 0 {
        return;
    }
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    for p in pixels {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let delta = (state % (2 * u64::from(amplitude) + 1)) as i16 - i16::from(amplitude);
        *p = (i16::from(*p) + delta).clamp(0, 255) as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jump_is_stride_steps() {
        let stepped = |s: u64| (0..STRIDE).fold(s, |s, _| step(s));
        assert_eq!(jump(0), 0, "zero is the generator's fixed point");
        seacma_util::forall!(200, |rng| {
            let s = rng.u64();
            assert_eq!(jump(s), stepped(s), "state {s:#x}");
        });
    }

    #[test]
    fn lanes_equal_reference_at_every_length() {
        // Every length across three groups and a bit: each group edge, the
        // one-lane tail at each of its lengths, its rounded-up last word.
        // The images are chosen so no pixel clamps on the side that would
        // hide a remainder: mid-grey holds any move of up to 127 either
        // way, and past that black records every upward move and white
        // every downward one — so what is pinned is the remainder stream
        // itself, not one image's clamped view of it.
        let longest = 3 * LANES * STRIDE + 7;
        let mut rng = seacma_util::prop::Rng::new(0x5EED_1A9E);
        for amplitude in [0u8, 1, 5, 40, 127, 255] {
            let seed = rng.u64();
            let fills: &[u8] = if amplitude <= 127 { &[128] } else { &[0, 255] };
            for &fill in fills {
                let mut want = vec![fill; longest];
                reference(&mut want, seed, amplitude);
                for len in 0..=longest {
                    let mut got = vec![fill; len];
                    apply(&mut got, seed, amplitude);
                    assert_eq!(got, want[..len], "len={len} amp={amplitude} fill={fill}");
                }
            }
        }
    }

    #[test]
    fn both_instantiations_equal_reference() {
        // The public entry runs whichever instantiation the CPU selects;
        // driving the portable body as well keeps it covered on machines
        // that report AVX2. Random content, lengths up to five groups and
        // a tail, the production amplitude half the time.
        seacma_util::forall!(120, |rng| {
            let len = rng.range(0, 5 * LANES * STRIDE + STRIDE);
            let clean: Vec<u8> = (0..len).map(|_| rng.u8()).collect();
            let seed = rng.u64();
            let amplitude = if rng.bool(0.5) { 5 } else { rng.u8() };
            let mut want = clean.clone();
            reference(&mut want, seed, amplitude);
            let mut got = clean.clone();
            apply(&mut got, seed, amplitude);
            assert_eq!(got, want, "dispatched, len={len} seed={seed} amp={amplitude}");
            got.copy_from_slice(&clean);
            apply_portable(&mut got, seed, amplitude);
            assert_eq!(got, want, "portable, len={len} seed={seed} amp={amplitude}");
        });
    }
}

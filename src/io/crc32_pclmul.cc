/**
 * @file
 * The PCLMULQDQ folding kernel behind io::crc32 on x86-64. This
 * translation unit is compiled with -mpclmul -msse4.1 (see
 * CMakeLists); io::crc32 calls it only when the ISA is AVX2 and
 * cpuid reports pclmul.
 *
 * The method is Gopal et al., "Fast CRC Computation for Generic
 * Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
 * bit-reflected domain of the IEEE 802.3 polynomial P:
 *
 *  1. Four 128-bit lanes take the first 64 bytes, the CRC register
 *     XORed into the lowest word. Each further 64-byte step
 *     carry-less multiplies every lane's two halves by k1 and k2 and
 *     XORs in the lane's next 16 bytes.
 *  2. The four lanes fold into one with k3/k4, and any remaining
 *     16-byte blocks fold in the same way.
 *  3. The 128-bit remainder folds to 64 bits (k4) and then to 32 plus
 *     32 (k5), and a Barrett reduction by mu = x^64 / P leaves the
 *     32-bit register.
 *
 * k_n is x^n mod P, bit-reflected and shifted left once: k1 = x^544,
 * k2 = x^480, k3 = x^160, k4 = x^96, k5 = x^64. These are the
 * published constants of the polynomial, the same values as Linux's
 * crc32-pclmul and Chromium zlib's crc32_simd. The tests check every
 * length, offset and split point against a bit-at-a-time reference.
 */

#include "io/crc32_pclmul.hh"

#include <immintrin.h>

namespace pstat::io::detail
{

uint32_t
crc32FoldPclmul(uint32_t state, const unsigned char *data, size_t len)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

    const auto load = [](const unsigned char *p) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    };
    // Moves lane `a` forward by the distance its constant pair
    // encodes (512 bits for k1/k2, 128 for k3/k4): the low half times
    // the low constant, XORed with the high half times the high one.
    const auto fold = [](__m128i a, __m128i k) {
        return _mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                             _mm_clmulepi64_si128(a, k, 0x11));
    };

    const __m128i seed = _mm_cvtsi32_si128(static_cast<int>(state));
    __m128i x0 = _mm_xor_si128(load(data), seed);
    __m128i x1 = load(data + 16);
    __m128i x2 = load(data + 32);
    __m128i x3 = load(data + 48);
    data += 64;
    len -= 64;

    for (; len >= 64; data += 64, len -= 64) {
        x0 = _mm_xor_si128(fold(x0, k1k2), load(data));
        x1 = _mm_xor_si128(fold(x1, k1k2), load(data + 16));
        x2 = _mm_xor_si128(fold(x2, k1k2), load(data + 32));
        x3 = _mm_xor_si128(fold(x3, k1k2), load(data + 48));
    }

    x0 = _mm_xor_si128(fold(x0, k3k4), x1);
    x0 = _mm_xor_si128(fold(x0, k3k4), x2);
    x0 = _mm_xor_si128(fold(x0, k3k4), x3);
    for (; len >= 16; data += 16, len -= 16)
        x0 = _mm_xor_si128(fold(x0, k3k4), load(data));

    // 128 -> 64 bits: the low half times k4, XORed into the high half.
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                       _mm_clmulepi64_si128(x0, k3k4, 0x10));
    // 64 -> 32 + 32 bits: the low word times k5, XORed into the rest.
    x0 = _mm_xor_si128(
        _mm_srli_si128(x0, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));

    // Barrett: q = (low word * mu) mod x^32, then x0 ^= q * P.
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu,
                                     0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
    x0 = _mm_xor_si128(x0, q);
    return static_cast<uint32_t>(_mm_extract_epi32(x0, 1));
}

} // namespace pstat::io::detail

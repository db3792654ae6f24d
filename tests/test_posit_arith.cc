/**
 * @file
 * Posit arithmetic correctness: every operation must equal the
 * correctly rounded (RNE) result of exact arithmetic. The oracle is
 * BigFloat: the operands convert exactly, the exact op happens at 256
 * bits, and fromBigFloat performs the reference rounding. Exhaustive
 * over all operand pairs for 8-bit configs; randomized for 64-bit.
 */

#include <gtest/gtest.h>

#include "bigfloat/bigfloat.hh"
#include "core/posit.hh"
#include "stats/rng.hh"

namespace
{

using pstat::BigFloat;
using pstat::Posit;
using pstat::stats::Rng;

template <int N, int ES>
void
exhaustiveArithCheck()
{
    using P = Posit<N, ES>;
    for (uint64_t a = 0; a < (uint64_t{1} << N); ++a) {
        for (uint64_t b = 0; b < (uint64_t{1} << N); ++b) {
            const P pa = P::fromBits(a);
            const P pb = P::fromBits(b);
            if (pa.isNaR() || pb.isNaR())
                continue;
            const BigFloat ea = pa.toBigFloat();
            const BigFloat eb = pb.toBigFloat();

            ASSERT_EQ((pa + pb).bits(),
                      P::fromBigFloat(ea + eb).bits())
                << N << "," << ES << " add " << a << " " << b;
            ASSERT_EQ((pa - pb).bits(),
                      P::fromBigFloat(ea - eb).bits())
                << N << "," << ES << " sub " << a << " " << b;
            ASSERT_EQ((pa * pb).bits(),
                      P::fromBigFloat(ea * eb).bits())
                << N << "," << ES << " mul " << a << " " << b;
            if (!pb.isZero()) {
                ASSERT_EQ((pa / pb).bits(),
                          P::fromBigFloat(ea / eb).bits())
                    << N << "," << ES << " div " << a << " " << b;
            }
        }
    }
}

TEST(PositArithExhaustive, Posit8es0) { exhaustiveArithCheck<8, 0>(); }
TEST(PositArithExhaustive, Posit8es1) { exhaustiveArithCheck<8, 1>(); }
TEST(PositArithExhaustive, Posit8es2) { exhaustiveArithCheck<8, 2>(); }
TEST(PositArithExhaustive, Posit9es1) { exhaustiveArithCheck<9, 1>(); }
TEST(PositArithExhaustive, Posit10es2) { exhaustiveArithCheck<10, 2>(); }
TEST(PositArithExhaustive, Posit7es3) { exhaustiveArithCheck<7, 3>(); }

/** Random posit(64, ES) pattern whose magnitude spans the format. */
template <typename P>
P
randomPosit(Rng &rng)
{
    for (;;) {
        const P x = P::fromBits(rng());
        if (!x.isNaR())
            return x;
    }
}

template <int ES>
void
randomized64Check(uint64_t seed, int iterations)
{
    using P = Posit<64, ES>;
    Rng rng(seed);
    for (int i = 0; i < iterations; ++i) {
        const P a = randomPosit<P>(rng);
        const P b = randomPosit<P>(rng);
        const BigFloat ea = a.toBigFloat();
        const BigFloat eb = b.toBigFloat();
        ASSERT_EQ((a + b).bits(), P::fromBigFloat(ea + eb).bits())
            << "add " << a.bits() << " " << b.bits();
        ASSERT_EQ((a * b).bits(), P::fromBigFloat(ea * eb).bits())
            << "mul " << a.bits() << " " << b.bits();
        if (!b.isZero()) {
            ASSERT_EQ((a / b).bits(),
                      P::fromBigFloat(ea / eb).bits())
                << "div " << a.bits() << " " << b.bits();
        }
    }
}

TEST(PositArithRandom64, Es9) { randomized64Check<9>(101, 20000); }
TEST(PositArithRandom64, Es12) { randomized64Check<12>(102, 20000); }
TEST(PositArithRandom64, Es18) { randomized64Check<18>(103, 20000); }
TEST(PositArithRandom64, Es2) { randomized64Check<2>(104, 10000); }
TEST(PositArithRandom64, Es0) { randomized64Check<0>(105, 10000); }

/**
 * Probability-magnitude stress: operands shaped like the paper's
 * workloads (tiny positive values down to 2^-200000).
 */
template <int ES>
void
tinyOperandCheck(uint64_t seed, int iterations)
{
    using P = Posit<64, ES>;
    Rng rng(seed);
    for (int i = 0; i < iterations; ++i) {
        const int64_t ea_exp =
            -static_cast<int64_t>(rng.below(200000));
        const int64_t eb_exp =
            ea_exp + 40 - static_cast<int64_t>(rng.below(80));
        BigFloat::Mantissa ma = {rng(), rng(), rng(),
                                 rng() | (uint64_t{1} << 63)};
        BigFloat::Mantissa mb = {rng(), rng(), rng(),
                                 rng() | (uint64_t{1} << 63)};
        const BigFloat a = BigFloat::fromLimbs(false, ea_exp, ma);
        const BigFloat b = BigFloat::fromLimbs(false, eb_exp, mb);
        const P pa = P::fromBigFloat(a);
        const P pb = P::fromBigFloat(b);
        const BigFloat ea = pa.toBigFloat();
        const BigFloat eb = pb.toBigFloat();
        ASSERT_EQ((pa + pb).bits(), P::fromBigFloat(ea + eb).bits());
        ASSERT_EQ((pa * pb).bits(), P::fromBigFloat(ea * eb).bits());
    }
}

TEST(PositArithTiny, Es9) { tinyOperandCheck<9>(201, 5000); }
TEST(PositArithTiny, Es12) { tinyOperandCheck<12>(202, 5000); }
TEST(PositArithTiny, Es18) { tinyOperandCheck<18>(203, 5000); }

/** Algebraic properties, parameterized across configurations. */
template <typename P>
class PositPropertyTest : public ::testing::Test
{
  protected:
    std::vector<P>
    sampleValues(uint64_t seed, int count)
    {
        Rng rng(seed);
        std::vector<P> out;
        while (static_cast<int>(out.size()) < count) {
            const P x = P::fromBits(rng());
            if (!x.isNaR())
                out.push_back(x);
        }
        return out;
    }
};

using PropertyConfigs =
    ::testing::Types<Posit<16, 1>, Posit<32, 2>, Posit<64, 9>,
                     Posit<64, 12>, Posit<64, 18>>;
TYPED_TEST_SUITE(PositPropertyTest, PropertyConfigs);

TYPED_TEST(PositPropertyTest, AddCommutes)
{
    auto vals = this->sampleValues(1, 200);
    for (size_t i = 0; i + 1 < vals.size(); i += 2) {
        EXPECT_EQ((vals[i] + vals[i + 1]).bits(),
                  (vals[i + 1] + vals[i]).bits());
    }
}

TYPED_TEST(PositPropertyTest, MulCommutes)
{
    auto vals = this->sampleValues(2, 200);
    for (size_t i = 0; i + 1 < vals.size(); i += 2) {
        EXPECT_EQ((vals[i] * vals[i + 1]).bits(),
                  (vals[i + 1] * vals[i]).bits());
    }
}

TYPED_TEST(PositPropertyTest, NegationDistributesOverAdd)
{
    auto vals = this->sampleValues(3, 200);
    for (size_t i = 0; i + 1 < vals.size(); i += 2) {
        // Posit rounding is sign-symmetric: -(a+b) == (-a)+(-b).
        EXPECT_EQ((-(vals[i] + vals[i + 1])).bits(),
                  ((-vals[i]) + (-vals[i + 1])).bits());
    }
}

TYPED_TEST(PositPropertyTest, NegationDistributesOverMul)
{
    auto vals = this->sampleValues(4, 200);
    for (size_t i = 0; i + 1 < vals.size(); i += 2) {
        EXPECT_EQ((-(vals[i] * vals[i + 1])).bits(),
                  ((-vals[i]) * vals[i + 1]).bits());
    }
}

TYPED_TEST(PositPropertyTest, AdditionMonotone)
{
    using P = TypeParam;
    auto vals = this->sampleValues(5, 150);
    const P c = P::fromDouble(1.25);
    for (size_t i = 0; i + 1 < vals.size(); i += 2) {
        const P lo = vals[i] < vals[i + 1] ? vals[i] : vals[i + 1];
        const P hi = vals[i] < vals[i + 1] ? vals[i + 1] : vals[i];
        EXPECT_TRUE(lo + c <= hi + c)
            << lo.bits() << " " << hi.bits();
    }
}

TYPED_TEST(PositPropertyTest, MulByPowerOfTwoRoundTripsWithinOneUlp)
{
    using P = TypeParam;
    auto vals = this->sampleValues(6, 100);
    const P two = P::fromDouble(2.0);
    const P half = P::fromDouble(0.5);
    for (const P &v : vals) {
        if (v.isZero())
            continue;
        const auto u = v.unpack();
        // Stay away from the saturation edges where *2 clamps.
        if (u.scale + 1 >= P::scale_max || u.scale - 1 <= P::scale_min)
            continue;
        // Scaling by 2 can change the regime length and so shave a
        // fraction bit (tapered precision) — the round trip is exact
        // to within one unit in the last place, never more.
        const P back = (v * two) * half;
        const auto delta =
            static_cast<int64_t>(back.bits()) -
            static_cast<int64_t>(v.bits());
        EXPECT_LE(delta < 0 ? -delta : delta, 1) << v.bits();
    }
}

} // namespace

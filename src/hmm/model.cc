#include "hmm/model.hh"

#include <cmath>

namespace pstat::hmm
{

bool
Model::validate(double tol) const
{
    const auto h = static_cast<size_t>(num_states);
    const auto m = static_cast<size_t>(num_symbols);
    if (num_states <= 0 || num_symbols <= 0)
        return false;
    if (a.size() != h * h || b.size() != h * m || pi.size() != h)
        return false;

    double pi_sum = 0.0;
    for (double p : pi) {
        if (!(p >= 0.0 && p <= 1.0))
            return false;
        pi_sum += p;
    }
    if (std::fabs(pi_sum - 1.0) > tol)
        return false;

    for (int i = 0; i < num_states; ++i) {
        double row = 0.0;
        for (int j = 0; j < num_states; ++j) {
            const double p = aAt(i, j);
            if (!(p >= 0.0 && p <= 1.0))
                return false;
            row += p;
        }
        if (std::fabs(row - 1.0) > tol)
            return false;
    }

    for (double p : b) {
        if (!(p > 0.0 && p <= 1.0))
            return false;
    }
    return true;
}

} // namespace pstat::hmm

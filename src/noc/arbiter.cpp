#include "noc/arbiter.hpp"

#include "util/log.hpp"

namespace nocalert::noc {

RoundRobinArbiter::RoundRobinArbiter(unsigned num_clients)
    : num_clients_(num_clients)
{
    NOCALERT_ASSERT(num_clients >= 1 && num_clients <= 64,
                    "arbiter clients out of range: ", num_clients);
}

} // namespace nocalert::noc

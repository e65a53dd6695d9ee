#ifndef HYFD_FD_CLOSURE_H_
#define HYFD_FD_CLOSURE_H_

#include <vector>

#include "fd/fd_set.h"
#include "util/attribute_set.h"

namespace hyfd {

/// Attribute-set closure X+ under `fds` (Armstrong axioms fixpoint).
///
/// This is the primitive the paper's §10.6 names as the reason complete FD
/// result sets matter: schema normalization and key discovery are closure
/// computations over the discovered FDs.
AttributeSet Closure(const AttributeSet& attrs, const FDSet& fds);

/// True iff `fds` logically implies `fd` (rhs ∈ closure(lhs)).
bool Implies(const FDSet& fds, const FD& fd);

/// True iff the two FD sets imply each other.
bool Equivalent(const FDSet& a, const FDSet& b, int num_attributes);

/// Canonical/minimal cover: singleton RHSs (given), no extraneous LHS
/// attributes, no redundant FDs.
FDSet MinimalCover(const FDSet& fds, int num_attributes);

/// True iff `attrs` determines every attribute of the schema.
bool IsSuperKey(const AttributeSet& attrs, const FDSet& fds, int num_attributes);

/// All minimal candidate keys of a schema with `num_attributes` attributes
/// under `fds`. Exponential in the worst case; `max_results` bounds the
/// search for wide schemas (0 = unbounded).
std::vector<AttributeSet> CandidateKeys(const FDSet& fds, int num_attributes,
                                        size_t max_results = 0);

/// Candidate keys of the sub-relation over `universe`: the minimal K ⊆
/// `universe` whose closure under `fds` contains `universe`. Derivations
/// through attributes outside `universe` count; the search runs on a cover
/// of `fds` projected onto `universe`.
std::vector<AttributeSet> CandidateKeysWithin(const FDSet& fds,
                                              const AttributeSet& universe,
                                              size_t max_results = 0);

}  // namespace hyfd

#endif  // HYFD_FD_CLOSURE_H_

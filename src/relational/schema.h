// Schema: a relation schema R = (EID, A1, ..., An) as in Section 2 of the
// paper.  The first attribute is always the entity id (EID) that groups
// tuples pertaining to the same real-world entity (Codd-style surrogate,
// produced by an external entity-resolution step).

#ifndef CURRENCY_SRC_RELATIONAL_SCHEMA_H_
#define CURRENCY_SRC_RELATIONAL_SCHEMA_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace currency {

/// Index of an attribute within a schema (0 is always the EID).
using AttrIndex = int;

/// A named relation schema.  Attribute 0 is the EID; attributes 1..n are
/// the data attributes A1..An that carry currency orders.
class Schema {
 public:
  Schema() = default;

  /// Creates a schema.  `attributes` must not include the EID; it is
  /// prepended automatically under the name `eid_name` (default "EID").
  /// Fails if names are not unique identifiers.
  static Result<Schema> Make(std::string relation_name,
                             std::vector<std::string> attributes,
                             std::string eid_name = "EID");

  /// The relation name (e.g. "Emp").
  const std::string& relation_name() const { return relation_name_; }

  /// Total number of attributes, EID included.
  int arity() const { return static_cast<int>(names_.size()); }

  /// Number of data attributes (arity() - 1).
  int num_data_attributes() const { return arity() - 1; }

  /// Name of attribute `i` (0 = EID).
  const std::string& attribute_name(AttrIndex i) const { return names_[i]; }

  /// All attribute names, EID first.
  const std::vector<std::string>& attribute_names() const { return names_; }

  /// Index of `name`, or error if absent.
  Result<AttrIndex> IndexOf(const std::string& name) const;

  /// "R(EID, A1, ..., An)".
  std::string ToString() const;

  bool operator==(const Schema& other) const {
    return relation_name_ == other.relation_name_ && names_ == other.names_;
  }

 private:
  std::string relation_name_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, AttrIndex> index_;
};

}  // namespace currency

#endif  // CURRENCY_SRC_RELATIONAL_SCHEMA_H_

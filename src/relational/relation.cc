#include "src/relational/relation.h"

#include <algorithm>
#include <sstream>

namespace currency {

Result<TupleId> Relation::Append(Tuple tuple) {
  if (tuple.arity() != schema_.arity()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.arity()) +
        " does not match schema " + schema_.ToString());
  }
  tuples_.push_back(std::move(tuple));
  entity_groups_.reset();
  return static_cast<TupleId>(tuples_.size() - 1);
}

Status Relation::UpdateValue(TupleId id, AttrIndex attr, Value v) {
  if (id < 0 || id >= size()) {
    return Status::InvalidArgument("tuple id " + std::to_string(id) +
                                   " out of range for " +
                                   schema_.relation_name());
  }
  if (attr < 0 || attr >= schema_.arity()) {
    return Status::InvalidArgument("attribute index " + std::to_string(attr) +
                                   " out of range for " + schema_.ToString());
  }
  tuples_[id].at(attr) = std::move(v);
  entity_groups_.reset();
  return Status::OK();
}

std::vector<Value> Relation::Entities() const {
  std::set<Value> seen;
  for (const Tuple& t : tuples_) seen.insert(t.eid());
  return std::vector<Value>(seen.begin(), seen.end());
}

const std::map<Value, std::vector<TupleId>>& Relation::EntityGroups() const {
  if (entity_groups_ == nullptr) {
    auto groups = std::make_shared<std::map<Value, std::vector<TupleId>>>();
    for (TupleId id = 0; id < size(); ++id) {
      (*groups)[tuples_[id].eid()].push_back(id);
    }
    entity_groups_ = std::move(groups);
  }
  return *entity_groups_;
}

std::set<Value> Relation::ActiveDomain() const {
  std::set<Value> out;
  for (const Tuple& t : tuples_) {
    for (const Value& v : t.values()) out.insert(v);
  }
  return out;
}

std::string Relation::ToString() const {
  std::ostringstream os;
  os << schema_.ToString() << "\n";
  // Compute column widths for alignment.
  std::vector<size_t> width(schema_.arity());
  for (int i = 0; i < schema_.arity(); ++i) {
    width[i] = schema_.attribute_name(i).size();
  }
  for (const Tuple& t : tuples_) {
    for (int i = 0; i < t.arity(); ++i) {
      width[i] = std::max(width[i], t.at(i).ToString().size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& cells) {
    os << "  ";
    for (size_t i = 0; i < cells.size(); ++i) {
      os << cells[i];
      os << std::string(width[i] - cells[i].size() + 2, ' ');
    }
    os << "\n";
  };
  emit_row(schema_.attribute_names());
  for (TupleId id = 0; id < size(); ++id) {
    std::vector<std::string> cells;
    cells.reserve(schema_.arity());
    for (int i = 0; i < schema_.arity(); ++i) {
      cells.push_back(tuples_[id].at(i).ToString());
    }
    emit_row(cells);
  }
  return os.str();
}

}  // namespace currency

#include "src/relational/schema.h"

#include "src/common/strings.h"

namespace currency {

Result<Schema> Schema::Make(std::string relation_name,
                            std::vector<std::string> attributes,
                            std::string eid_name) {
  if (!IsIdentifier(relation_name)) {
    return Status::InvalidArgument("relation name '" + relation_name +
                                   "' is not an identifier");
  }
  Schema schema;
  schema.relation_name_ = std::move(relation_name);
  schema.names_.push_back(std::move(eid_name));
  for (auto& attr : attributes) {
    schema.names_.push_back(std::move(attr));
  }
  for (int i = 0; i < schema.arity(); ++i) {
    const std::string& name = schema.names_[i];
    if (!IsIdentifier(name)) {
      return Status::InvalidArgument("attribute name '" + name +
                                     "' is not an identifier");
    }
    auto [it, inserted] = schema.index_.emplace(name, i);
    (void)it;
    if (!inserted) {
      return Status::InvalidArgument("duplicate attribute name '" + name +
                                     "'");
    }
  }
  return schema;
}

Result<AttrIndex> Schema::IndexOf(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("attribute '" + name + "' not in schema " +
                            relation_name_);
  }
  return it->second;
}

std::string Schema::ToString() const {
  return relation_name_ + "(" + Join(names_, ", ") + ")";
}

}  // namespace currency

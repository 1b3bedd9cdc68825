#include "dataflow/element_traits.h"

#include <string>

namespace psgraph::dataflow::detail {

Status TruncatedRecord(const ByteReader& reader) {
  return Status::OutOfRange(
      "truncated record at offset " + std::to_string(reader.position()) +
      " (" + std::to_string(reader.remaining()) + " bytes left)");
}

}  // namespace psgraph::dataflow::detail

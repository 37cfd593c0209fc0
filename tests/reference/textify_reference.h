// Per-cell textification: the differential oracle for
// Textifier::TransformColumn, the one tokenizer in src/. It writes the
// Section 4.1 cell rule out again, one Value at a time, from the fitted
// column state alone (Textifier::FindColumn): fresh std::strings for every
// token, the bin label rebuilt per cell, lists split into owned fields. Slow
// by design; never used outside tests.
#ifndef LEVA_TESTS_REFERENCE_TEXTIFY_REFERENCE_H_
#define LEVA_TESTS_REFERENCE_TEXTIFY_REFERENCE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "table/value.h"
#include "text/textifier.h"

namespace leva {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// The tokens `value` textifies to as a cell of the fitted column
/// `table_name`.`column_name`: none for a null; the trimmed raw value for a
/// key, an atomic string or a dirty numeric cell; "<attribute>#bin<k>" for a
/// numeric or datetime value; each trimmed element of a list. Empty tokens
/// are dropped. NotFound when the column was not fitted.
Result<std::vector<std::string>> ReferenceCellTokens(
    const Textifier& textifier, const std::string& table_name,
    const std::string& column_name, const Value& value);

/// The production tokenizer on one cell: a one-row Textifier::TransformColumn
/// call on a column named `column_name` that holds only `value`, with its
/// tokens copied out. Lets a test state what one literal value textifies to.
Result<std::vector<std::string>> TransformOneCell(
    const Textifier& textifier, const std::string& table_name,
    const std::string& column_name, const Value& value);

}  // namespace leva

#endif  // LEVA_TESTS_REFERENCE_TEXTIFY_REFERENCE_H_

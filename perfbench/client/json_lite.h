// A small JSON reader for checking the server's answers.  The benchmark
// parses what the server sends with its own code, so a defect in the
// server's JSON writer cannot hide behind a shared parser.
#ifndef AQUA_PERFBENCH_JSON_LITE_H_
#define AQUA_PERFBENCH_JSON_LITE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  /// The member named `key`, or nullptr (also when this is not an object).
  const Json* Get(std::string_view key) const;
  Json* GetMutable(std::string_view key);
  /// The numeric member `key`, or `fallback` when absent or not a number.
  double Num(std::string_view key, double fallback = 0.0) const;
  bool Has(std::string_view key) const { return Get(key) != nullptr; }
};

/// Parses one JSON document; false on any syntax error or trailing bytes.
bool ParseJson(std::string_view text, Json* out);

/// Re-serializes a document (numbers with full precision); used to compare
/// two answers field by field after dropping the timing fields.
std::string DumpJson(const Json& value);

}  // namespace perfbench

#endif  // AQUA_PERFBENCH_JSON_LITE_H_

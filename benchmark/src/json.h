// A small JSON reader for the benchmark's own files: result files written
// by x100ir_bench and the repository's BENCHMARK.json. It accepts the full
// JSON grammar except \u escapes outside ASCII, which neither file uses.
#ifndef X100IR_BENCHMARK_JSON_H_
#define X100IR_BENCHMARK_JSON_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace x100ir::harness {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  // Member `key` of an object, or null when absent / not an object.
  const JsonValue* Get(const std::string& key) const;
};

Status ParseJson(const std::string& text, JsonValue* out);
Status ReadJsonFile(const std::string& path, JsonValue* out);

// Writes `s` as a JSON string literal (quotes included).
std::string JsonQuote(const std::string& s);

}  // namespace x100ir::harness

#endif  // X100IR_BENCHMARK_JSON_H_

#include "json_lite.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace perfbench {
namespace {

class Reader {
 public:
  explicit Reader(std::string_view text) : s_(text) {}

  bool Document(Json* out) {
    if (!Value(out, 0)) return false;
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool String(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          // Kept verbatim: the server only escapes control characters, and
          // the checks compare strings, never display them.
          if (pos_ + 4 > s_.size()) return false;
          out->append("\\u");
          out->append(s_.substr(pos_, 4));
          pos_ += 4;
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  bool Number(double* out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const auto [ptr, ec] = std::from_chars(s_.data() + start, s_.data() + pos_,
                                           *out);
    return ec == std::errc() && ptr == s_.data() + pos_;
  }

  bool Value(Json* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipSpace();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = Json::Type::kObject;
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipSpace();
        std::pair<std::string, Json> field;
        if (!String(&field.first)) return false;
        SkipSpace();
        if (pos_ >= s_.size() || s_[pos_] != ':') return false;
        ++pos_;
        if (!Value(&field.second, depth + 1)) return false;
        out->fields.push_back(std::move(field));
        SkipSpace();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out->type = Json::Type::kArray;
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        Json item;
        if (!Value(&item, depth + 1)) return false;
        out->items.push_back(std::move(item));
        SkipSpace();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->text);
    }
    if (Literal("true")) {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->type = Json::Type::kBool;
      return true;
    }
    if (Literal("null")) {
      out->type = Json::Type::kNull;
      return true;
    }
    out->type = Json::Type::kNumber;
    return Number(&out->number);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

void Dump(const Json& v, std::string* out) {
  switch (v.type) {
    case Json::Type::kNull: out->append("null"); return;
    case Json::Type::kBool: out->append(v.boolean ? "true" : "false"); return;
    case Json::Type::kNumber: {
      char buf[64];
      const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v.number);
      out->append(buf, ec == std::errc() ? ptr : buf);
      return;
    }
    case Json::Type::kString:
      out->push_back('"');
      out->append(v.text);
      out->push_back('"');
      return;
    case Json::Type::kArray:
      out->push_back('[');
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (i > 0) out->push_back(',');
        Dump(v.items[i], out);
      }
      out->push_back(']');
      return;
    case Json::Type::kObject:
      out->push_back('{');
      for (std::size_t i = 0; i < v.fields.size(); ++i) {
        if (i > 0) out->push_back(',');
        out->push_back('"');
        out->append(v.fields[i].first);
        out->append("\":");
        Dump(v.fields[i].second, out);
      }
      out->push_back('}');
      return;
  }
}

}  // namespace

const Json* Json::Get(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

Json* Json::GetMutable(std::string_view key) {
  return const_cast<Json*>(static_cast<const Json*>(this)->Get(key));
}

double Json::Num(std::string_view key, double fallback) const {
  const Json* v = Get(key);
  return (v != nullptr && v->type == Type::kNumber) ? v->number : fallback;
}

bool ParseJson(std::string_view text, Json* out) {
  *out = Json();
  return Reader(text).Document(out);
}

std::string DumpJson(const Json& value) {
  std::string out;
  Dump(value, &out);
  return out;
}

}  // namespace perfbench

// JSON string escaping shared by the obs writers: the metrics snapshot, the
// Chrome-trace export and structured log lines.
#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace artc::obs {

// Appends `s` to `out` as the body of a JSON string: '"' and '\' are
// backslash-escaped and control bytes become \u00XX; everything else
// (including UTF-8) passes through.
inline void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace artc::obs

#endif  // SRC_OBS_JSON_H_

// Small string helpers shared across the toolchain.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xtsoc {

/// Split `text` on `sep`, keeping empty pieces.
std::vector<std::string> split(std::string_view text, char sep);

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// True if `name` is a valid identifier: [A-Za-z_][A-Za-z0-9_]*.
bool is_identifier(std::string_view name);

/// lower_snake_case -> lower_snake_case (already), CamelCase -> camel_case.
std::string to_snake_case(std::string_view name);

/// any_case -> UPPER_SNAKE_CASE.
std::string to_upper_snake(std::string_view name);

/// Join pieces with `sep`.
std::string join(const std::vector<std::string>& pieces, std::string_view sep);

/// Indent every line of `text` by `spaces` spaces.
std::string indent(std::string_view text, int spaces);

/// Strip the longest common leading run of spaces/tabs from every
/// non-blank line of `text` (blank lines become empty).
std::string dedent(std::string_view text);

/// Number of newline-terminated lines in `text` (a trailing partial line counts).
std::size_t count_lines(std::string_view text);

/// The standard 64-bit FNV offset basis.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a of `bytes` from the start value `basis`: the one
/// fingerprint of text and bytes (interface digests, jit content digests,
/// test pins).
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t basis = kFnv1aBasis);

/// fnv1a(bytes) in lower-case hex, without leading zeros.
std::string fnv1a_hex(std::string_view bytes);

}  // namespace xtsoc

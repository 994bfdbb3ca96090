#include "lora/frame.hpp"

#include <stdexcept>

#include "coding/crc.hpp"

namespace choir::lora {

namespace {

std::size_t wire_bytes(std::size_t payload_bytes) {
  return 1 + payload_bytes + 2;  // length byte + payload + crc16
}

// The length byte, read from the first interleaver block alone: it carries
// at least sf/2 >= 3 bytes, so the byte is always recoverable from it.
std::optional<std::size_t> header_payload_len(
    const std::vector<std::uint32_t>& symbols, const PhyParams& phy) {
  const std::size_t block_syms = header_symbol_count(phy);
  if (symbols.size() < block_syms) return std::nullopt;
  const std::vector<std::uint32_t> first(
      symbols.begin(),
      symbols.begin() + static_cast<std::ptrdiff_t>(block_syms));
  // Decoding fewer bytes than the block holds is fine: pass the exact count.
  const std::size_t first_block_bytes = static_cast<std::size_t>(phy.sf) / 2;
  return coding::decode_payload(first, first_block_bytes, phy.codec())[0];
}

}  // namespace

std::vector<std::uint32_t> build_frame_symbols(
    const std::vector<std::uint8_t>& payload, const PhyParams& phy) {
  phy.validate();
  if (payload.size() > kMaxPayloadBytes)
    throw std::invalid_argument("build_frame_symbols: payload too long");
  std::vector<std::uint8_t> wire;
  wire.reserve(wire_bytes(payload.size()));
  wire.push_back(static_cast<std::uint8_t>(payload.size()));
  wire.insert(wire.end(), payload.begin(), payload.end());
  const std::uint16_t crc = coding::crc16(payload);
  wire.push_back(static_cast<std::uint8_t>(crc & 0xFF));
  wire.push_back(static_cast<std::uint8_t>(crc >> 8));
  return coding::encode_payload(wire, phy.codec());
}

std::size_t frame_symbol_count(std::size_t payload_bytes,
                               const PhyParams& phy) {
  return coding::symbols_for_payload(wire_bytes(payload_bytes), phy.codec());
}

double frame_airtime_s(std::size_t payload_bytes, const PhyParams& phy) {
  const double n_sym =
      static_cast<double>(phy.preamble_len + phy.sfd_len +
                          frame_symbol_count(payload_bytes, phy));
  return n_sym * phy.symbol_duration_s();
}

std::optional<std::size_t> frame_symbols_from_header(
    const std::vector<std::uint32_t>& symbols, const PhyParams& phy) {
  phy.validate();
  const auto len = header_payload_len(symbols, phy);
  if (!len) return std::nullopt;
  return frame_symbol_count(*len, phy);
}

std::optional<ParsedFrame> parse_frame_symbols(
    const std::vector<std::uint32_t>& symbols, const PhyParams& phy) {
  phy.validate();
  const auto len = header_payload_len(symbols, phy);
  if (!len) return std::nullopt;
  const std::size_t payload_len = *len;
  const std::size_t total_bytes = wire_bytes(payload_len);
  const std::size_t need_syms = frame_symbol_count(payload_len, phy);
  if (symbols.size() < need_syms) return std::nullopt;

  std::vector<std::uint32_t> body(symbols.begin(),
                                  symbols.begin() + static_cast<std::ptrdiff_t>(need_syms));
  ParsedFrame out;
  const std::vector<std::uint8_t> wire =
      coding::decode_payload(body, total_bytes, phy.codec(), &out.fec);
  out.payload.assign(wire.begin() + 1,
                     wire.begin() + 1 + static_cast<std::ptrdiff_t>(payload_len));
  const std::uint16_t crc = coding::crc16(out.payload);
  const std::uint16_t wire_crc = static_cast<std::uint16_t>(
      wire[1 + payload_len] | (wire[2 + payload_len] << 8));
  out.crc_ok = crc == wire_crc;
  return out;
}

}  // namespace choir::lora

// LoRa frame: explicit length byte + payload + CRC-16, run through the
// whitening/Hamming/interleaving/Gray codec into chirp symbol values.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "coding/codec.hpp"
#include "lora/params.hpp"

namespace choir::lora {

inline constexpr std::size_t kMaxPayloadBytes = 255;

/// Builds the on-air symbol sequence for a payload: [len | payload | crc16]
/// coded per the PHY's codec parameters.
std::vector<std::uint32_t> build_frame_symbols(
    const std::vector<std::uint8_t>& payload, const PhyParams& phy);

/// Number of data symbols a frame with `payload_bytes` occupies on air.
std::size_t frame_symbol_count(std::size_t payload_bytes, const PhyParams& phy);

/// Total on-air duration of a frame including preamble and SFD.
double frame_airtime_s(std::size_t payload_bytes, const PhyParams& phy);

/// Number of data symbols that carry the length byte: the first
/// interleaver block.
inline std::size_t header_symbol_count(const PhyParams& phy) {
  return static_cast<std::size_t>(4 + phy.cr);
}

/// Number of data symbols the frame occupies, read from the length byte in
/// the first interleaver block of `symbols` — what a receiver needs to know
/// before it demodulates the rest. Returns nullopt while `symbols` is
/// shorter than one block. Equals frame_symbol_count(len, phy) for the
/// length `len` the header declares (which may be corrupt).
std::optional<std::size_t> frame_symbols_from_header(
    const std::vector<std::uint32_t>& symbols, const PhyParams& phy);

struct ParsedFrame {
  std::vector<std::uint8_t> payload;
  bool crc_ok = false;
  coding::DecodeStats fec;
};

/// Parses symbols back into a frame. Returns nullopt if the embedded length
/// is implausible (corrupt beyond recovery). `symbols` may contain trailing
/// padding symbols beyond the frame; they are ignored.
std::optional<ParsedFrame> parse_frame_symbols(
    const std::vector<std::uint32_t>& symbols, const PhyParams& phy);

}  // namespace choir::lora

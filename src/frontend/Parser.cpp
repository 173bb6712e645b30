//===- frontend/Parser.cpp -------------------------------------------------===//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"
#include "ir/Verifier.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

using namespace kf;

namespace {

/// Recursive-descent parser over the token stream. The first error stops
/// the parse; Failed latches so downstream code can bail out cheaply.
class PipelineParser {
public:
  PipelineParser(std::vector<Token> Tokens, std::vector<std::string> &Errors,
                 bool Strict = true)
      : Tokens(std::move(Tokens)), Errors(Errors), Strict(Strict) {}

  std::unique_ptr<Program> run() {
    if (!expectKeyword("program"))
      return nullptr;
    Token Name = expect(TokenKind::Ident, "program name");
    if (Failed)
      return nullptr;
    Prog = std::make_unique<Program>(Name.Text);

    while (!Failed && peek().Kind != TokenKind::EndOfFile) {
      const Token &Tok = peek();
      if (Tok.Kind != TokenKind::Ident) {
        error("expected a declaration ('image', 'mask', or a kernel)");
        return nullptr;
      }
      if (Tok.Text == "image")
        parseImage();
      else if (Tok.Text == "mask")
        parseMask();
      else if (Tok.Text == "point" || Tok.Text == "local" ||
               Tok.Text == "global")
        parseKernel();
      else
        error("unknown declaration '" + Tok.Text + "'");
    }
    if (Failed)
      return nullptr;
    return std::move(Prog);
  }

private:
  // ----- token plumbing -----------------------------------------------

  const Token &peek(unsigned Ahead = 0) const {
    size_t Index = std::min(Pos + Ahead, Tokens.size() - 1);
    return Tokens[Index];
  }

  Token advance() { return Tokens[std::min(Pos++, Tokens.size() - 1)]; }

  void error(const std::string &Message) {
    if (!Failed)
      Errors.push_back("line " + std::to_string(peek().Line) + ": " +
                       Message);
    Failed = true;
  }

  Token expect(TokenKind Kind, const std::string &What) {
    if (Failed)
      return Token{};
    if (peek().Kind != Kind) {
      error("expected " + What + ", got " +
            tokenKindName(peek().Kind) +
            (peek().Text.empty() ? "" : " '" + peek().Text + "'"));
      return Token{};
    }
    return advance();
  }

  bool expectKeyword(const std::string &Word) {
    if (Failed)
      return false;
    if (peek().Kind != TokenKind::Ident || peek().Text != Word) {
      error("expected '" + Word + "'");
      return false;
    }
    advance();
    return true;
  }

  bool tryKeyword(const std::string &Word) {
    if (!Failed && peek().Kind == TokenKind::Ident && peek().Text == Word) {
      advance();
      return true;
    }
    return false;
  }

  long parseInt(const std::string &What) {
    bool Negative = false;
    if (peek().Kind == TokenKind::Minus) {
      advance();
      Negative = true;
    }
    Token Tok = expect(TokenKind::Number, What);
    if (Failed)
      return 0;
    errno = 0;
    long Value = std::strtol(Tok.Text.c_str(), nullptr, 10);
    if (errno == ERANGE) {
      // Without the check an out-of-range literal silently clamps to
      // LONG_MAX and parses "successfully".
      error("integer literal '" + Tok.Text + "' is out of range");
      return 0;
    }
    return Negative ? -Value : Value;
  }

  /// Converts a Number token to float with overflow detection: a literal
  /// like 1e999 clamps to HUGE_VALF with ERANGE and must be a parse
  /// error, while underflow to a denormal or zero is an acceptable
  /// nearest representation.
  float floatLiteral(const Token &Tok) {
    errno = 0;
    float Value = std::strtof(Tok.Text.c_str(), nullptr);
    if (errno == ERANGE && std::abs(Value) == HUGE_VALF) {
      error("float literal '" + Tok.Text + "' is out of range");
      return 0.0f;
    }
    return Value;
  }

  float parseFloat(const std::string &What) {
    bool Negative = false;
    if (peek().Kind == TokenKind::Minus) {
      advance();
      Negative = true;
    }
    Token Tok = expect(TokenKind::Number, What);
    if (Failed)
      return 0.0f;
    float Value = floatLiteral(Tok);
    return Negative ? -Value : Value;
  }

  // ----- declarations ---------------------------------------------------

  void parseImage() {
    advance(); // 'image'
    Token Name = expect(TokenKind::Ident, "image name");
    long Width = parseInt("image width");
    long Height = parseInt("image height");
    long Channels = 1;
    if (peek().Kind == TokenKind::Number)
      Channels = parseInt("image channels");
    if (Failed)
      return;
    if (Width <= 0 || Height <= 0 || Channels <= 0) {
      error("image extents must be positive");
      return;
    }
    if (Images.count(Name.Text)) {
      error("image '" + Name.Text + "' redeclared");
      return;
    }
    Images[Name.Text] = Prog->addImage(Name.Text, static_cast<int>(Width),
                                       static_cast<int>(Height),
                                       static_cast<int>(Channels));
  }

  void parseMask() {
    advance(); // 'mask'
    Token Name = expect(TokenKind::Ident, "mask name");
    long Width = parseInt("mask width");
    long Height = parseInt("mask height");
    expect(TokenKind::LBrack, "'['");
    std::vector<float> Weights;
    while (!Failed && peek().Kind != TokenKind::RBrack)
      Weights.push_back(parseFloat("mask weight"));
    expect(TokenKind::RBrack, "']'");
    if (Failed)
      return;
    // In lenient mode malformed masks are admitted as-is so the static
    // analyzer can report them with codes (KF-P04) instead of the parse
    // aborting on the first problem.
    if (Strict) {
      if (Width <= 0 || Height <= 0 || Width % 2 == 0 || Height % 2 == 0) {
        error("mask extents must be positive and odd");
        return;
      }
      if (Weights.size() != static_cast<size_t>(Width * Height)) {
        error("mask '" + Name.Text + "' expects " +
              std::to_string(Width * Height) + " weights, got " +
              std::to_string(Weights.size()));
        return;
      }
    }
    if (Masks.count(Name.Text)) {
      error("mask '" + Name.Text + "' redeclared");
      return;
    }
    // Field assignment sidesteps the asserting Mask constructor, which
    // lenient mode must be able to violate.
    Mask M;
    M.Width = static_cast<int>(Width);
    M.Height = static_cast<int>(Height);
    M.Weights = std::move(Weights);
    Masks[Name.Text] = Prog->addMask(std::move(M));
  }

  void parseKernel() {
    Token KindTok = advance(); // point/local/global
    Kernel K;
    if (KindTok.Text == "point")
      K.Kind = OperatorKind::Point;
    else if (KindTok.Text == "local")
      K.Kind = OperatorKind::Local;
    else
      K.Kind = OperatorKind::Global;

    expectKeyword("kernel");
    Token Name = expect(TokenKind::Ident, "kernel name");
    K.Name = Name.Text;

    expect(TokenKind::LParen, "'('");
    CurrentInputs.clear();
    while (!Failed && peek().Kind != TokenKind::RParen) {
      if (!CurrentInputs.empty())
        expect(TokenKind::Comma, "','");
      Token In = expect(TokenKind::Ident, "input image name");
      if (Failed)
        return;
      auto It = Images.find(In.Text);
      if (It == Images.end()) {
        error("unknown image '" + In.Text + "'");
        return;
      }
      CurrentInputs.push_back(In.Text);
      K.Inputs.push_back(It->second);
    }
    expect(TokenKind::RParen, "')'");
    expect(TokenKind::Arrow, "'->'");
    Token Out = expect(TokenKind::Ident, "output image name");
    if (Failed)
      return;
    auto OutIt = Images.find(Out.Text);
    if (OutIt == Images.end()) {
      error("unknown image '" + Out.Text + "'");
      return;
    }
    K.Output = OutIt->second;

    if (tryKeyword("border")) {
      Token Mode = expect(TokenKind::Ident, "border mode");
      if (Failed)
        return;
      if (Mode.Text == "clamp")
        K.Border = BorderMode::Clamp;
      else if (Mode.Text == "mirror")
        K.Border = BorderMode::Mirror;
      else if (Mode.Text == "repeat")
        K.Border = BorderMode::Repeat;
      else if (Mode.Text == "constant")
        K.Border = BorderMode::Constant;
      else {
        error("unknown border mode '" + Mode.Text + "'");
        return;
      }
      if (tryKeyword("value"))
        K.BorderConstant = parseFloat("border constant");
    }
    if (tryKeyword("granularity"))
      K.Granularity = static_cast<int>(parseInt("granularity"));

    expect(TokenKind::LBrace, "'{'");
    expectKeyword("out");
    expect(TokenKind::Equals, "'='");
    K.Body = parseExpr();
    expect(TokenKind::RBrace, "'}'");
    if (Failed)
      return;
    Prog->addKernel(std::move(K));
  }

  // ----- expressions ----------------------------------------------------

  const Expr *parseExpr() { return parseCmp(); }

  const Expr *parseCmp() {
    const Expr *Lhs = parseAdd();
    while (!Failed && (peek().Kind == TokenKind::Less ||
                       peek().Kind == TokenKind::Greater)) {
      BinOp Op = advance().Kind == TokenKind::Less ? BinOp::CmpLT
                                                   : BinOp::CmpGT;
      const Expr *Rhs = parseAdd();
      if (Failed)
        return nullptr;
      Lhs = Prog->context().binary(Op, Lhs, Rhs);
    }
    return Lhs;
  }

  const Expr *parseAdd() {
    const Expr *Lhs = parseMul();
    while (!Failed && (peek().Kind == TokenKind::Plus ||
                       peek().Kind == TokenKind::Minus)) {
      BinOp Op =
          advance().Kind == TokenKind::Plus ? BinOp::Add : BinOp::Sub;
      const Expr *Rhs = parseMul();
      if (Failed)
        return nullptr;
      Lhs = Prog->context().binary(Op, Lhs, Rhs);
    }
    return Lhs;
  }

  const Expr *parseMul() {
    const Expr *Lhs = parseUnary();
    while (!Failed && (peek().Kind == TokenKind::Star ||
                       peek().Kind == TokenKind::Slash)) {
      BinOp Op =
          advance().Kind == TokenKind::Star ? BinOp::Mul : BinOp::Div;
      const Expr *Rhs = parseUnary();
      if (Failed)
        return nullptr;
      Lhs = Prog->context().binary(Op, Lhs, Rhs);
    }
    return Lhs;
  }

  const Expr *parseUnary() {
    if (peek().Kind == TokenKind::Minus) {
      advance();
      // Fold "-<literal>" into a negative constant so that serialized
      // negative literals round-trip to the same AST.
      if (peek().Kind == TokenKind::Number) {
        Token Tok = advance();
        return Prog->context().floatConst(-floatLiteral(Tok));
      }
      const Expr *Operand = parseUnary();
      if (Failed)
        return nullptr;
      return Prog->context().unary(UnOp::Neg, Operand);
    }
    return parsePrimary();
  }

  /// Optional ".N" channel suffix after an input access.
  int parseChannelSuffix() {
    if (peek().Kind != TokenKind::Dot)
      return -1;
    advance();
    return static_cast<int>(parseInt("channel index"));
  }

  int inputIndexOf(const std::string &Name) {
    for (size_t I = 0; I != CurrentInputs.size(); ++I)
      if (CurrentInputs[I] == Name)
        return static_cast<int>(I);
    return -1;
  }

  const Expr *parseReduction(ReduceOp Op) {
    ExprContext &C = Prog->context();
    expect(TokenKind::LParen, "'('");
    Token MaskName = expect(TokenKind::Ident, "mask name");
    if (Failed)
      return nullptr;
    auto It = Masks.find(MaskName.Text);
    if (It == Masks.end()) {
      error("unknown mask '" + MaskName.Text + "'");
      return nullptr;
    }
    expect(TokenKind::Comma, "','");
    const Expr *Element = parseExpr();
    expect(TokenKind::RParen, "')'");
    if (Failed)
      return nullptr;
    return C.stencil(It->second, Op, Element);
  }

  const Expr *parseCall(UnOp Op) {
    ExprContext &C = Prog->context();
    expect(TokenKind::LParen, "'('");
    const Expr *Operand = parseExpr();
    expect(TokenKind::RParen, "')'");
    if (Failed)
      return nullptr;
    return C.unary(Op, Operand);
  }

  const Expr *parseCall2(BinOp Op) {
    ExprContext &C = Prog->context();
    expect(TokenKind::LParen, "'('");
    const Expr *Lhs = parseExpr();
    expect(TokenKind::Comma, "','");
    const Expr *Rhs = parseExpr();
    expect(TokenKind::RParen, "')'");
    if (Failed)
      return nullptr;
    return C.binary(Op, Lhs, Rhs);
  }

  const Expr *parsePrimary() {
    ExprContext &C = Prog->context();
    if (Failed)
      return nullptr;

    if (peek().Kind == TokenKind::Number) {
      Token Tok = advance();
      return C.floatConst(floatLiteral(Tok));
    }
    if (peek().Kind == TokenKind::LParen) {
      advance();
      const Expr *Inner = parseExpr();
      expect(TokenKind::RParen, "')'");
      return Inner;
    }
    if (peek().Kind != TokenKind::Ident) {
      error("expected an expression");
      return nullptr;
    }

    Token Name = advance();
    const std::string &Id = Name.Text;

    // Coordinate / stencil-scoped scalars.
    if (Id == "x")
      return C.coordX();
    if (Id == "y")
      return C.coordY();
    if (Id == "dx")
      return C.stencilOffX();
    if (Id == "dy")
      return C.stencilOffY();
    if (Id == "mv")
      return C.maskValue();

    // Builtin calls.
    if (Id == "sqrt")
      return parseCall(UnOp::Sqrt);
    if (Id == "exp")
      return parseCall(UnOp::Exp);
    if (Id == "log")
      return parseCall(UnOp::Log);
    if (Id == "abs")
      return parseCall(UnOp::Abs);
    if (Id == "floor")
      return parseCall(UnOp::Floor);
    if (Id == "min")
      return parseCall2(BinOp::Min);
    if (Id == "max")
      return parseCall2(BinOp::Max);
    if (Id == "pow")
      return parseCall2(BinOp::Pow);
    if (Id == "select") {
      expect(TokenKind::LParen, "'('");
      const Expr *Cond = parseExpr();
      expect(TokenKind::Comma, "','");
      const Expr *TrueValue = parseExpr();
      expect(TokenKind::Comma, "','");
      const Expr *FalseValue = parseExpr();
      expect(TokenKind::RParen, "')'");
      if (Failed)
        return nullptr;
      return C.select(Cond, TrueValue, FalseValue);
    }
    if (Id == "sum")
      return parseReduction(ReduceOp::Sum);
    if (Id == "product")
      return parseReduction(ReduceOp::Product);
    if (Id == "reduce_min")
      return parseReduction(ReduceOp::Min);
    if (Id == "reduce_max")
      return parseReduction(ReduceOp::Max);

    // Input accesses.
    int InputIdx = inputIndexOf(Id);
    if (InputIdx < 0) {
      error("unknown name '" + Id + "' (not an input of this kernel)");
      return nullptr;
    }
    if (peek().Kind == TokenKind::LBrack) {
      advance();
      expect(TokenKind::RBrack, "']' (window accesses take no indices)");
      int Channel = parseChannelSuffix();
      if (Failed)
        return nullptr;
      return C.stencilInput(InputIdx, Channel);
    }
    if (peek().Kind == TokenKind::LParen) {
      advance();
      long Ox = parseInt("x offset");
      expect(TokenKind::Comma, "','");
      long Oy = parseInt("y offset");
      expect(TokenKind::RParen, "')'");
      int Channel = parseChannelSuffix();
      if (Failed)
        return nullptr;
      return C.inputAt(InputIdx, static_cast<int>(Ox),
                       static_cast<int>(Oy), Channel);
    }
    int Channel = parseChannelSuffix();
    if (Failed)
      return nullptr;
    return C.inputAt(InputIdx, 0, 0, Channel);
  }

  std::vector<Token> Tokens;
  std::vector<std::string> &Errors;
  bool Strict = true;
  size_t Pos = 0;
  bool Failed = false;

  std::unique_ptr<Program> Prog;
  std::map<std::string, ImageId> Images;
  std::map<std::string, int> Masks;
  std::vector<std::string> CurrentInputs;
};

} // namespace

ParseResult kf::parsePipelineText(const std::string &Source, bool Verify) {
  ParseResult Result;
  std::vector<Token> Tokens = lexPipelineText(Source, Result.Errors);
  if (!Result.Errors.empty())
    return Result;

  PipelineParser Parser(std::move(Tokens), Result.Errors, /*Strict=*/Verify);
  Result.Prog = Parser.run();
  if (!Result.Prog || !Verify)
    return Result;

  DiagnosticEngine DE;
  verifyProgram(*Result.Prog, DE);
  for (const Diagnostic &Diag : DE.diagnostics())
    Result.Errors.push_back("verifier: " + Diag.Code + ": " +
                            Diag.Loc.str() + ": " + Diag.Message);
  if (!Result.Errors.empty())
    Result.Prog.reset();
  return Result;
}

ParseResult kf::parsePipelineFile(const std::string &Path, bool Verify) {
  ParseResult Result;
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    Result.Errors.push_back("cannot open '" + Path + "'");
    return Result;
  }
  std::string Source;
  char Buffer[4096];
  size_t Count;
  while ((Count = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Source.append(Buffer, Count);
  std::fclose(File);
  return parsePipelineText(Source, Verify);
}

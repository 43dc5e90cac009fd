"""Generator stand-ins for the closed loop.

Both render the context package, which any real generator must do before it
sends the prompt, and count the bytes; both then call the template
generator. `DroppingGenerator` stands for a run-to-run-variable LLM: on its
first call for a request it omits one variable declaration, so the repair
loop has to re-retrieve the missing symbol and try again.
"""

from __future__ import annotations

from closurekb import codegen


class RenderingGenerator:
    """One instance serves one request."""

    def __init__(self):
        self._template = codegen.TemplateGenerator()
        self.calls = 0
        self.prompt_bytes = 0
        self.snippet_ids: tuple[str, ...] = ()

    def __call__(self, package) -> str:
        self.calls += 1
        self.prompt_bytes += len(package.render().encode("utf-8"))
        self.snippet_ids = tuple(doc_id for doc_id, _score, _text in package.snippets)
        return self._template(package)


class DroppingGenerator(RenderingGenerator):
    def __call__(self, package) -> str:
        code = super().__call__(package)
        if self.calls == 1:
            lines = code.splitlines(keepends=True)
            first_var = next((i for i, line in enumerate(lines) if line.startswith("var ")), None)
            if first_var is not None:
                del lines[first_var]
            code = "".join(lines)
        return code
